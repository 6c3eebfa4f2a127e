package qasm

import (
	"math"
	"strconv"
)

// A parameter expression compiles to a postfix program of exprOps.
// Expressions appear in gate parameter lists and inside gate bodies,
// where they may reference the gate's formal parameters: the compiler
// resolves each formal to its index, so evaluation reads the actual
// values from a slice and needs neither a tree nor a map.
type opcode uint8

const (
	opConst opcode = iota // push val
	opParam               // push env[idx]
	opNeg
	opSin
	opCos
	opTan
	opExp
	opLn
	opSqrt
	opAdd
	opSub
	opMul
	opDiv
	opPow
)

var functions = map[string]opcode{
	"sin": opSin, "cos": opCos, "tan": opTan,
	"exp": opExp, "ln": opLn, "sqrt": opSqrt,
}

var binaryOps = [...]opcode{
	tokPlus: opAdd, tokMinus: opSub, tokStar: opMul, tokSlash: opDiv, tokCaret: opPow,
}

type exprOp struct {
	op        opcode
	idx       int // formal index, for opParam
	val       float64
	line, col int // operator position, for opDiv's error
}

// expr is one compiled parameter expression and where it starts.
type expr struct {
	ops       []exprOp
	line, col int
}

// parseExpr compiles the expression starting at p.tok into p.prog,
// resolving identifiers against formals (nil at top level). It leaves
// p.tok on the first token after the expression.
func (p *parser) parseExpr(formals []string) (expr, error) {
	e := expr{line: p.tok.line, col: p.tok.col}
	p.prog = p.prog[:0]
	if err := p.additive(formals); err != nil {
		return expr{}, err
	}
	e.ops = p.prog
	return e, nil
}

// additive parses term (('+'|'-') term)*: the lowest precedence.
func (p *parser) additive(formals []string) error {
	if err := p.term(formals); err != nil {
		return err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := exprOp{op: binaryOps[p.tok.kind], line: p.tok.line, col: p.tok.col}
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.term(formals); err != nil {
			return err
		}
		p.prog = append(p.prog, op)
	}
	return nil
}

// term parses power (('*'|'/') power)*.
func (p *parser) term(formals []string) error {
	if err := p.power(formals); err != nil {
		return err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := exprOp{op: binaryOps[p.tok.kind], line: p.tok.line, col: p.tok.col}
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.power(formals); err != nil {
			return err
		}
		p.prog = append(p.prog, op)
	}
	return nil
}

// power parses unary ('^' power)?: '^' is right associative.
func (p *parser) power(formals []string) error {
	if err := p.unary(formals); err != nil {
		return err
	}
	if p.tok.kind != tokCaret {
		return nil
	}
	op := exprOp{op: opPow, line: p.tok.line, col: p.tok.col}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.power(formals); err != nil {
		return err
	}
	p.prog = append(p.prog, op)
	return nil
}

func (p *parser) unary(formals []string) error {
	switch p.tok.kind {
	case tokMinus:
		op := exprOp{op: opNeg, line: p.tok.line, col: p.tok.col}
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.unary(formals); err != nil {
			return err
		}
		p.prog = append(p.prog, op)
		return nil
	case tokPlus:
		if err := p.advance(); err != nil {
			return err
		}
		return p.unary(formals)
	case tokNumber:
		v, err := strconv.ParseFloat(string(p.tok.text), 64)
		if err != nil {
			return errf(p.tok.line, p.tok.col, "invalid number %q", p.tok.text)
		}
		p.prog = append(p.prog, exprOp{op: opConst, val: v})
		return p.advance()
	case tokLParen:
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.additive(formals); err != nil {
			return err
		}
		return p.skip(tokRParen)
	case tokIdent:
		line, col := p.tok.line, p.tok.col
		fn, isFn := functions[string(p.tok.text)]
		isPi := string(p.tok.text) == "pi"
		idx := indexOf(formals, p.tok.text)
		var name string // copied only when an error may need it
		if !isPi && idx < 0 {
			name = string(p.tok.text)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokLParen { // function call
			if !isFn {
				if isPi {
					name = "pi"
				} else if idx >= 0 {
					name = formals[idx]
				}
				return errf(line, col, "unknown function %q", name)
			}
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.additive(formals); err != nil {
				return err
			}
			p.prog = append(p.prog, exprOp{op: fn, line: line, col: col})
			return p.skip(tokRParen)
		}
		switch {
		case isPi:
			p.prog = append(p.prog, exprOp{op: opConst, val: math.Pi})
		case idx >= 0:
			p.prog = append(p.prog, exprOp{op: opParam, idx: idx})
		default:
			return errf(line, col, "unknown parameter %q", name)
		}
		return nil
	default:
		return errf(p.tok.line, p.tok.col, "expected expression, found %v %q", p.tok.kind, p.tok.text)
	}
}

// indexOf returns the index of name in names, or -1.
func indexOf(names []string, name []byte) int {
	for i, n := range names {
		if n == string(name) {
			return i
		}
	}
	return -1
}

// eval runs a compiled expression with formal values env and checks
// the result is a finite angle.
func (p *parser) eval(e expr, env []float64) (float64, error) {
	st := p.stack[:0]
	for i := range e.ops {
		o := &e.ops[i]
		switch o.op {
		case opConst:
			st = append(st, o.val)
			continue
		case opParam:
			st = append(st, env[o.idx])
			continue
		}
		top := &st[len(st)-1]
		switch o.op {
		case opNeg:
			*top = -*top
		case opSin:
			*top = math.Sin(*top)
		case opCos:
			*top = math.Cos(*top)
		case opTan:
			*top = math.Tan(*top)
		case opExp:
			*top = math.Exp(*top)
		case opLn:
			*top = math.Log(*top)
		case opSqrt:
			*top = math.Sqrt(*top)
		default:
			r := *top
			st = st[:len(st)-1]
			l := &st[len(st)-1]
			switch o.op {
			case opAdd:
				*l += r
			case opSub:
				*l -= r
			case opMul:
				*l *= r
			case opDiv:
				if r == 0 {
					return 0, errf(o.line, o.col, "division by zero in parameter expression")
				}
				*l /= r
			case opPow:
				*l = math.Pow(*l, r)
			}
		}
	}
	p.stack = st
	v := st[0]
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, errf(e.line, e.col, "parameter evaluates to %v, not a finite angle", v)
	}
	return v, nil
}
