package qasm

import (
	"strings"
	"testing"
)

// lexAll lexes src through a 4-byte window, so most tokens straddle a
// refill. Token text is only valid until the next token, so it is
// copied out.
func lexAll(t *testing.T, src string) []token {
	t.Helper()
	lx := newLexer(strings.NewReader(src), 4)
	var out []token
	for {
		var tok token
		err := lx.next(&tok)
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		if tok.kind == tokEOF {
			return out
		}
		tok.text = append([]byte(nil), tok.text...)
		out = append(out, tok)
	}
}

func TestLexerTokens(t *testing.T) {
	toks := lexAll(t, `cx q[0],q[1];`)
	wantKinds := []tokenKind{tokIdent, tokIdent, tokLBracket, tokNumber, tokRBracket, tokComma, tokIdent, tokLBracket, tokNumber, tokRBracket, tokSemicolon}
	if len(toks) != len(wantKinds) {
		t.Fatalf("got %d tokens", len(toks))
	}
	for i, k := range wantKinds {
		if toks[i].kind != k {
			t.Fatalf("token %d: kind %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	cases := map[string]string{
		"42":     "42",
		"3.14":   "3.14",
		".5":     ".5",
		"1e10":   "1e10",
		"1.5e-3": "1.5e-3",
		"2E+4":   "2E+4",
	}
	for src, want := range cases {
		toks := lexAll(t, src)
		if len(toks) != 1 || toks[0].kind != tokNumber || string(toks[0].text) != want {
			t.Fatalf("%q lexed to %+v", src, toks)
		}
	}
}

func TestLexerOperators(t *testing.T) {
	toks := lexAll(t, "+-*/^() ->")
	want := []tokenKind{tokPlus, tokMinus, tokStar, tokSlash, tokCaret, tokLParen, tokRParen, tokArrow}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i, k := range want {
		if toks[i].kind != k {
			t.Fatalf("token %d: %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexerMinusVsArrow(t *testing.T) {
	toks := lexAll(t, "a - b -> c -5")
	kinds := []tokenKind{tokIdent, tokMinus, tokIdent, tokArrow, tokIdent, tokMinus, tokNumber}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d: %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks := lexAll(t, "ab\n  cd")
	if toks[0].line != 1 || toks[0].col != 1 {
		t.Fatalf("first token at %d:%d", toks[0].line, toks[0].col)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Fatalf("second token at %d:%d", toks[1].line, toks[1].col)
	}
}

func TestLexerCommentsSkipped(t *testing.T) {
	toks := lexAll(t, "a // trailing comment\n// whole line\nb")
	if len(toks) != 2 || string(toks[0].text) != "a" || string(toks[1].text) != "b" {
		t.Fatalf("comments mishandled: %+v", toks)
	}
}

func TestLexerStrings(t *testing.T) {
	toks := lexAll(t, `include "qelib1.inc";`)
	if toks[1].kind != tokString || string(toks[1].text) != "qelib1.inc" {
		t.Fatalf("string token wrong: %+v", toks[1])
	}
}

func TestLexerIdentifiers(t *testing.T) {
	toks := lexAll(t, "q_0 Abc _x a1b2")
	for i, want := range []string{"q_0", "Abc", "_x", "a1b2"} {
		if toks[i].kind != tokIdent || string(toks[i].text) != want {
			t.Fatalf("ident %d = %+v, want %q", i, toks[i], want)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "#", "=x", `"unterminated`} {
		lx := newLexer(strings.NewReader(src), 4)
		var err error
		for {
			var tok token
			err = lx.next(&tok)
			if err != nil || tok.kind == tokEOF {
				break
			}
		}
		if err == nil {
			t.Errorf("%q: expected lex error", src)
		}
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k := tokEOF; k <= tokEquals; k++ {
		if k.String() == "unknown token" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestLexerDoubleEquals(t *testing.T) {
	toks := lexAll(t, "a == b")
	if toks[1].kind != tokEquals {
		t.Fatalf("== lexed as %v", toks[1].kind)
	}
}
