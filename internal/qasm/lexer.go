// Package qasm implements a reader and writer for the OpenQASM 2.0
// subset needed by the paper's benchmark suites (RevLib, QISKit,
// Quipper and ScaffCC exports all ship as QASM built on qelib1.inc).
//
// Supported: OPENQASM/include headers, qreg/creg declarations (multiple
// registers are flattened into one wire space), the qelib1 standard
// gates, user gate definitions (inlined at parse time), parameter
// expressions over pi with + - * / ^ and the usual unary functions,
// whole-register broadcast, measure, barrier and comments.
//
// There is one front end: GateScanner lexes in place over a refilled
// byte window and yields elementary gates statement by statement;
// Parse, ParseReader and ParseFile drain it into a circuit.
package qasm

import (
	"errors"
	"fmt"
	"io"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSemicolon
	tokComma
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokLBrace
	tokRBrace
	tokArrow
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
	tokEquals
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokSemicolon:
		return "';'"
	case tokComma:
		return "','"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokArrow:
		return "'->'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokCaret:
		return "'^'"
	case tokEquals:
		return "'=='"
	default:
		return "unknown token"
	}
}

// punct maps the single-byte tokens to their kinds.
var punct = [256]tokenKind{
	';': tokSemicolon, ',': tokComma, '(': tokLParen, ')': tokRParen,
	'[': tokLBracket, ']': tokRBracket, '{': tokLBrace, '}': tokRBrace,
	'+': tokPlus, '*': tokStar, '/': tokSlash, '^': tokCaret,
}

// token is one lexical unit with its source position. text is a span
// of the lexer's window (string literals exclude their quotes): it is
// valid only until the next call to next, so the parser copies a name
// only when it stores it.
type token struct {
	kind tokenKind
	text []byte
	line int
	col  int
}

// defaultWindow is the read window of a scanner over a stream of
// unknown length; it grows only for a single token longer than itself.
const defaultWindow = 32 << 10

// maxEmptyReads is how many consecutive (0, nil) reads the lexer
// tolerates before reporting io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// lexer converts QASM source into a token stream, lexing in place over
// a byte window that it refills from r. buf[pos:end] is the unread
// input; line and col are the source position of buf[pos].
type lexer struct {
	r    io.Reader
	buf  []byte
	pos  int
	end  int
	line int
	col  int
	rerr error // first error from r, io.EOF at end of input
}

// newLexer returns a lexer reading r through a window of the given
// size (at least one byte).
func newLexer(r io.Reader, window int) lexer {
	return lexer{r: r, buf: make([]byte, max(window, 1)), line: 1, col: 1}
}

// Error is a QASM syntax or semantic error with source position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("qasm:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// fill moves the unread bytes to the front of the window, grows the
// window if they fill it, and reads more. It reports whether new bytes
// arrived; once r fails (or ends) it records the error and reports
// false.
func (l *lexer) fill() bool {
	if l.rerr != nil {
		return false
	}
	if l.pos > 0 {
		l.end = copy(l.buf, l.buf[l.pos:l.end])
		l.pos = 0
	}
	if l.end == len(l.buf) {
		grown := make([]byte, 2*len(l.buf))
		copy(grown, l.buf)
		l.buf = grown
	}
	for i := 0; i < maxEmptyReads; i++ {
		n, err := l.r.Read(l.buf[l.end:])
		l.end += n
		if err != nil {
			l.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	l.rerr = io.ErrNoProgress
	return false
}

// peek returns the byte n positions past the read head, refilling the
// window as needed (which may move the unread bytes, never drop them);
// ok=false at end of input. A transport error while looking ahead cuts
// the token short, so it is returned instead.
func (l *lexer) peek(n int) (byte, bool, error) {
	for l.pos+n >= l.end {
		if !l.fill() {
			return 0, false, l.readErr()
		}
	}
	return l.buf[l.pos+n], true, nil
}

// run returns n plus the length of the run of class bytes starting n
// bytes past the read head, refilling the window as needed.
func (l *lexer) run(n int, class *[256]bool) (int, error) {
	for {
		i := l.pos + n
		for i < l.end && class[l.buf[i]] {
			i++
		}
		n = i - l.pos
		if i < l.end {
			return n, nil
		}
		if !l.fill() {
			return n, l.readErr()
		}
	}
}

// readErr is the transport error that ended the input early, or nil
// at a clean end of input.
func (l *lexer) readErr() error {
	if l.rerr == nil || errors.Is(l.rerr, io.EOF) {
		return nil
	}
	return l.rerr
}

// next lexes the next token into t, skipping whitespace and comments.
func (l *lexer) next(t *token) error {
	for {
		for l.pos < l.end {
			switch l.buf[l.pos] {
			case ' ', '\t', '\r':
				l.pos++
				l.col++
				continue
			case '\n':
				l.pos++
				l.line++
				l.col = 1
				continue
			}
			break
		}
		if l.pos == l.end {
			if l.fill() {
				continue
			}
			if err := l.readErr(); err != nil {
				return err
			}
			*t = token{kind: tokEOF, line: l.line, col: l.col}
			return nil
		}
		c := l.buf[l.pos]
		if c != '/' {
			return l.lexToken(c, t)
		}
		nc, _, err := l.peek(1)
		if err != nil {
			return err
		}
		if nc != '/' {
			return l.lexToken(c, t)
		}
		// Consume the comment as it arrives: it never grows the window.
		for {
			i := l.pos
			for i < l.end && l.buf[i] != '\n' {
				i++
			}
			l.col += i - l.pos
			l.pos = i
			if i < l.end || !l.fill() {
				break
			}
		}
	}
}

// take consumes the n bytes at the read head as one token of kind k.
// The token holds no newline, so only the column advances.
func (l *lexer) take(t *token, k tokenKind, n int) {
	// Field by field: a whole-struct store goes through a stack
	// temporary and stalls on store forwarding.
	t.kind, t.text, t.line, t.col = k, l.buf[l.pos:l.pos+n], l.line, l.col
	l.pos += n
	l.col += n
}

// lexToken lexes the token starting with c, the byte at the read head.
func (l *lexer) lexToken(c byte, t *token) error {
	if k := punct[c]; k != tokEOF {
		l.take(t, k, 1)
		return nil
	}
	switch {
	case identStart[c]:
		n, err := l.run(1, &identPart)
		if err != nil {
			return err
		}
		l.take(t, tokIdent, n)
		return nil
	case isDigit(c) || c == '.':
		n, err := l.run(1, &numberPart)
		if err != nil {
			return err
		}
		if e, ok, err := l.peek(n); err != nil {
			return err
		} else if ok && (e == 'e' || e == 'E') {
			n++
			if sc, ok, err := l.peek(n); err != nil {
				return err
			} else if ok && (sc == '+' || sc == '-') {
				n++
			}
			if n, err = l.run(n, &numberPart); err != nil {
				return err
			}
		}
		l.take(t, tokNumber, n)
		return nil
	case c == '-' || c == '=':
		nc, _, err := l.peek(1)
		if err != nil {
			return err
		}
		switch {
		case c == '-' && nc == '>':
			l.take(t, tokArrow, 2)
			return nil
		case c == '-':
			l.take(t, tokMinus, 1)
			return nil
		case nc == '=':
			l.take(t, tokEquals, 2)
			return nil
		}
	case c == '"':
		return l.lexString(t)
	}
	return errf(l.line, l.col, "unexpected character %q", c)
}

// lexString lexes a double-quoted literal; its text excludes the
// quotes. Literals may span lines.
func (l *lexer) lexString(t *token) error {
	n, err := l.run(1, &stringPart)
	if err != nil {
		return err
	}
	if _, ok, _ := l.peek(n); !ok {
		return errf(l.line, l.col, "unterminated string literal")
	}
	n++ // the closing quote
	*t = token{kind: tokString, text: l.buf[l.pos+1 : l.pos+n-1], line: l.line, col: l.col}
	for _, c := range l.buf[l.pos : l.pos+n] {
		if c == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
	}
	l.pos += n
	return nil
}

// Byte classes. A byte starts an identifier when it is '_' or its
// Latin-1 rune is a letter (unicode.IsLetter), as it always has been
// for this lexer; numbers are runs of digits and dots with an optional
// exponent.
var identStart, identPart, numberPart, stringPart [256]bool

func init() {
	for c := 0; c < 256; c++ {
		identStart[c] = c == '_' || unicode.IsLetter(rune(c))
		identPart[c] = identStart[c] || isDigit(byte(c))
		numberPart[c] = isDigit(byte(c)) || c == '.'
		stringPart[c] = c != '"'
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
