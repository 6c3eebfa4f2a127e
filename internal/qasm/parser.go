package qasm

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/circuit"
)

// maxStatementGates bounds the elementary gates one statement may
// expand to. Gate definitions nest, so a short program can describe an
// exponential expansion; every definition's expanded size is computed
// once when it is declared, and an application over the bound is
// refused before anything is expanded.
const maxStatementGates = 1 << 16

// maxGateNesting bounds how deeply gate definitions may call each
// other, which bounds the expansion's recursion.
const maxGateNesting = 1 << 10

// maxQubits bounds the flattened width of all quantum registers.
const maxQubits = 1 << 24

// callee is what a gate name resolves to: an elementary kind, a qelib1
// decomposition, the identity, or a user definition.
type callee struct {
	name   string
	kind   circuit.Kind
	decomp func(params []float64, w []int) []circuit.Gate
	def    *gateDef
	params int // -1: any count (the identity gates)
	qubits int
	cost   int // elementary gates one application expands to
	depth  int // definition nesting, 0 for built-ins
}

// gateDef is a user-defined gate (OpenQASM `gate` statement), resolved
// when declared: body calls point at their callees and name formals by
// index, so applying it needs no lookups.
type gateDef struct {
	body []bodyCall
}

// bodyCall is one statement inside a gate body.
type bodyCall struct {
	c         *callee
	params    []expr
	args      []int // formal qubit indices
	line, col int
}

// builtins resolves the elementary gates, the OpenQASM primitives U
// and CX, the identities and the qelib1 decompositions. It is filled
// at start-up and only read afterwards.
var builtins = map[string]*callee{}

func init() {
	for k := circuit.Kind(0); k <= circuit.KindSwap; k++ { // KindSwap is the last kind
		if k == circuit.KindMeasure || k == circuit.KindBarrier {
			continue
		}
		builtins[k.String()] = &callee{name: k.String(), kind: k, params: k.NumParams(), qubits: k.Arity(), cost: 1}
	}
	builtins["U"], builtins["u"] = builtins["u3"], builtins["u3"]
	builtins["CX"] = builtins["cx"]
	builtins["id"] = &callee{name: "id", params: -1}
	builtins["u0"] = &callee{name: "u0", params: -1}
	for _, d := range []struct {
		name           string
		params, qubits int
		decomp         func([]float64, []int) []circuit.Gate
	}{
		{"ccx", 0, 3, func(_ []float64, w []int) []circuit.Gate { return circuit.ToffoliDecomposition(w[0], w[1], w[2]) }},
		{"cu1", 1, 2, func(a []float64, w []int) []circuit.Gate { return circuit.CU1Decomposition(a[0], w[0], w[1]) }},
		{"cy", 0, 2, func(_ []float64, w []int) []circuit.Gate { return circuit.CYDecomposition(w[0], w[1]) }},
		{"ch", 0, 2, func(_ []float64, w []int) []circuit.Gate { return circuit.CHDecomposition(w[0], w[1]) }},
		{"crz", 1, 2, func(a []float64, w []int) []circuit.Gate { return circuit.CRZDecomposition(a[0], w[0], w[1]) }},
		{"cu3", 3, 2, func(a []float64, w []int) []circuit.Gate {
			return circuit.CU3Decomposition(a[0], a[1], a[2], w[0], w[1])
		}},
		{"cswap", 0, 3, func(_ []float64, w []int) []circuit.Gate { return circuit.CSwapDecomposition(w[0], w[1], w[2]) }},
		{"rzz", 1, 2, func(a []float64, w []int) []circuit.Gate { return circuit.RZZDecomposition(a[0], w[0], w[1]) }},
	} {
		cost := len(d.decomp(make([]float64, d.params), []int{0, 1, 2}))
		builtins[d.name] = &callee{name: d.name, decomp: d.decomp, params: d.params, qubits: d.qubits, cost: cost}
	}
}

// qreg is a declared quantum register: wires off..off+size-1.
type qreg struct {
	name      string
	off, size int
}

// operand is a parsed qubit operand: one wire (n == 1) or a whole
// register, wires first..first+n-1.
type operand struct {
	first, n int
}

// maxSlab is how many parameters a slab holds at most; see retain.
const maxSlab = 1024

// parser turns the token stream into elementary gates, one statement
// at a time.
type parser struct {
	lex lexer
	tok token

	regs     map[string]qreg
	lastReg  qreg // the register operand looked up last
	cregs    map[string]int
	numWires int
	defs     map[string]*callee

	gates []circuit.Gate // the current statement's gates

	// Scratch reused by every statement: operands, the expansion's
	// parameter and wire stacks, the expression compiler's program and
	// the evaluator's stack.
	ops   []operand
	vals  []float64
	wires []int
	prog  []exprOp
	stack []float64

	// slab backs the Params of emitted gates. It is carved, never
	// reused: gates a consumer still holds never alias later ones.
	slab []float64
}

func newParser(r io.Reader, window int) *parser {
	return &parser{
		lex:   newLexer(r, window),
		regs:  make(map[string]qreg),
		cregs: make(map[string]int),
		defs:  make(map[string]*callee),
	}
}

// bytesPerGate is a little under a typical gate statement's length
// ("cx q[1],q[2];\n" is 15 bytes): source size divided by it sizes a
// circuit's gate slice up front, rarely short.
const bytesPerGate = 12

// Parse reads OpenQASM 2.0 source and returns the flattened circuit.
// Measurements and barriers are preserved as gates; classical registers
// are validated but carry no data in this IR.
func Parse(src string) (*circuit.Circuit, error) {
	return drain(newGateScanner(strings.NewReader(src), min(len(src), defaultWindow)), len(src)/bytesPerGate)
}

// ParseReader parses QASM from r.
func ParseReader(r io.Reader) (*circuit.Circuit, error) {
	return drain(NewGateScanner(r), 0)
}

// ParseFile reads and parses a QASM file; the circuit is named after
// the file's base name without extension.
func ParseFile(path string) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := defaultWindow
	if st, err := f.Stat(); err == nil {
		size = int(st.Size())
	}
	c, err := drain(newGateScanner(f, min(size, defaultWindow)), size/bytesPerGate)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	c.SetName(strings.TrimSuffix(base, ".qasm"))
	return c, nil
}

// drain collects every gate of sc into a circuit that takes the slice
// over. The slice starts at capacity hint and doubles; a circuit may
// live long (a queued job, a cached result), so one left more than an
// eighth empty is copied to fit.
func drain(sc *GateScanner, hint int) (*circuit.Circuit, error) {
	gates := make([]circuit.Gate, 0, hint)
	for sc.Scan() {
		if len(gates) == cap(gates) {
			grown := make([]circuit.Gate, len(gates), max(2*cap(gates), 64))
			copy(grown, gates)
			gates = grown
		}
		gates = append(gates, sc.gate)
	}
	if sc.err != nil {
		return nil, sc.err
	}
	if cap(gates)-len(gates) > len(gates)/8 {
		gates = append([]circuit.Gate(nil), gates...)
	}
	return circuit.FromGates(sc.NumQubits(), gates), nil
}

func (p *parser) advance() error {
	return p.lex.next(&p.tok)
}

// want checks that the current token has kind k.
func (p *parser) want(k tokenKind) error {
	if p.tok.kind != k {
		return errf(p.tok.line, p.tok.col, "expected %v, found %v %q", k, p.tok.kind, p.tok.text)
	}
	return nil
}

// skip checks that the current token has kind k and moves past it.
func (p *parser) skip(k tokenKind) error {
	if err := p.want(k); err != nil {
		return err
	}
	return p.advance()
}

// next moves to the next token and checks it has kind k.
func (p *parser) next(k tokenKind) error {
	if err := p.advance(); err != nil {
		return err
	}
	return p.want(k)
}

// statement parses the next statement into p.gates, stopping on its
// last token (';' or the '}' closing a gate body), so a statement's
// gates are ready before any later input is read. It reports false at
// end of input.
func (p *parser) statement() (bool, error) {
	if err := p.advance(); err != nil {
		return false, err
	}
	switch p.tok.kind {
	case tokEOF:
		return false, nil
	case tokIdent:
	default:
		return false, errf(p.tok.line, p.tok.col, "expected statement, found %v %q", p.tok.kind, p.tok.text)
	}
	switch string(p.tok.text) {
	case "OPENQASM":
		return true, p.header()
	case "include":
		return true, p.include()
	case "qreg":
		return true, p.qreg()
	case "creg":
		return true, p.creg()
	case "gate":
		return true, p.gateDefStmt()
	case "opaque":
		return true, p.skipPast(tokSemicolon)
	case "measure":
		return true, p.measure()
	case "barrier":
		return true, p.barrier()
	case "reset":
		return false, errf(p.tok.line, p.tok.col, "reset is not supported by this subset")
	case "if":
		return false, errf(p.tok.line, p.tok.col, "classical control (if) is not supported by this subset")
	default:
		return true, p.application()
	}
}

// skipPast advances to the next token of kind k.
func (p *parser) skipPast(k tokenKind) error {
	for {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == k || p.tok.kind == tokEOF {
			return p.want(k)
		}
	}
}

func (p *parser) header() error {
	if err := p.next(tokNumber); err != nil {
		return err
	}
	if v := string(p.tok.text); v != "2.0" && v != "2" {
		return errf(p.tok.line, p.tok.col, "unsupported OPENQASM version %q (want 2.0)", v)
	}
	return p.next(tokSemicolon)
}

func (p *parser) include() error {
	if err := p.next(tokString); err != nil {
		return err
	}
	if string(p.tok.text) != "qelib1.inc" {
		return errf(p.tok.line, p.tok.col, "unsupported include %q (only qelib1.inc)", p.tok.text)
	}
	return p.next(tokSemicolon)
}

func (p *parser) qreg() error {
	if err := p.next(tokIdent); err != nil {
		return err
	}
	name, line, col := string(p.tok.text), p.tok.line, p.tok.col
	if _, dup := p.regs[name]; dup {
		return errf(line, col, "qreg %q redeclared", name)
	}
	if err := p.advance(); err != nil {
		return err
	}
	size, err := p.bracketed("register size", 1)
	if err != nil {
		return err
	}
	if size > maxQubits-p.numWires {
		return errf(line, col, "qreg %q takes the program past %d qubits", name, maxQubits)
	}
	p.regs[name] = qreg{name: name, off: p.numWires, size: size}
	p.numWires += size
	return p.next(tokSemicolon)
}

func (p *parser) creg() error {
	if err := p.next(tokIdent); err != nil {
		return err
	}
	name := string(p.tok.text)
	if err := p.advance(); err != nil {
		return err
	}
	size, err := p.bracketed("register size", 1)
	if err != nil {
		return err
	}
	p.cregs[name] = size
	return p.next(tokSemicolon)
}

// bracketed parses "[n]" starting at the current token, leaving p.tok
// on ']'; what names n in the error for a malformed n or one below
// least.
func (p *parser) bracketed(what string, least int) (int, error) {
	if err := p.want(tokLBracket); err != nil {
		return 0, err
	}
	if err := p.next(tokNumber); err != nil {
		return 0, err
	}
	n := 0
	for _, c := range p.tok.text {
		if !isDigit(c) || n > 1<<40 {
			n = -1
			break
		}
		n = 10*n + int(c-'0')
	}
	if n < least {
		return 0, errf(p.tok.line, p.tok.col, "invalid %s %q", what, p.tok.text)
	}
	return n, p.next(tokRBracket)
}

func (p *parser) gateDefStmt() error {
	if err := p.next(tokIdent); err != nil {
		return err
	}
	c := &callee{name: string(p.tok.text), def: &gateDef{}}
	if err := p.advance(); err != nil {
		return err
	}
	var formals []string
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return err
		}
		var err error
		if formals, err = p.nameList(tokRParen); err != nil {
			return err
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	args, err := p.nameList(tokLBrace)
	if err != nil {
		return err
	}
	c.params, c.qubits = len(formals), len(args)
	for {
		if err := p.advance(); err != nil {
			return err
		}
		switch {
		case p.tok.kind == tokRBrace:
			p.defs[c.name] = c
			return nil
		case p.tok.kind == tokEOF:
			return errf(p.tok.line, p.tok.col, "unterminated gate body for %q", c.name)
		case p.tok.kind == tokIdent && string(p.tok.text) == "barrier":
			// Barriers inside gate bodies are scheduling hints; skip.
			if err := p.skipPast(tokSemicolon); err != nil {
				return err
			}
			continue
		}
		call, err := p.bodyCall(formals, args)
		if err != nil {
			return err
		}
		if c.cost += call.c.cost; c.cost > maxStatementGates {
			c.cost = maxStatementGates + 1 // saturate: over the bound either way
		}
		if c.depth = max(c.depth, call.c.depth+1); c.depth > maxGateNesting {
			return errf(call.line, call.col, "gate %q nests definitions deeper than %d", c.name, maxGateNesting)
		}
		c.def.body = append(c.def.body, call)
	}
}

// idents calls each for every identifier of a possibly empty
// comma-separated list starting at the current token, and leaves p.tok
// on the token after the list.
func (p *parser) idents(each func() error) error {
	for p.tok.kind == tokIdent {
		if err := each(); err != nil {
			return err
		}
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokComma {
			break
		}
		if err := p.next(tokIdent); err != nil {
			return err
		}
	}
	return nil
}

// nameList parses a gate declaration's list of distinct names, ending
// on the token of kind end.
func (p *parser) nameList(end tokenKind) ([]string, error) {
	var names []string
	err := p.idents(func() error {
		if indexOf(names, p.tok.text) >= 0 {
			return errf(p.tok.line, p.tok.col, "duplicate name %q in gate declaration", p.tok.text)
		}
		names = append(names, string(p.tok.text))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return names, p.want(end)
}

// bodyCall parses one gate-body statement, starting at its name. A
// body may call only built-in and previously defined gates, so the
// definitions form a DAG and no expansion can recurse.
func (p *parser) bodyCall(formals, args []string) (bodyCall, error) {
	if err := p.want(tokIdent); err != nil {
		return bodyCall{}, err
	}
	call := bodyCall{line: p.tok.line, col: p.tok.col}
	c, err := p.lookup()
	if err != nil {
		return bodyCall{}, err
	}
	call.c = c
	if err := p.advance(); err != nil {
		return bodyCall{}, err
	}
	if p.tok.kind == tokLParen {
		err := p.paramList(func() error {
			e, err := p.parseExpr(formals)
			if err != nil {
				return err
			}
			e.ops = append([]exprOp(nil), e.ops...)
			call.params = append(call.params, e)
			return nil
		})
		if err != nil {
			return bodyCall{}, err
		}
	}
	err = p.idents(func() error {
		a := indexOf(args, p.tok.text)
		if a < 0 {
			return errf(p.tok.line, p.tok.col, "unknown qubit argument %q in gate body", p.tok.text)
		}
		call.args = append(call.args, a)
		return nil
	})
	if err != nil {
		return bodyCall{}, err
	}
	if err := p.want(tokSemicolon); err != nil {
		return bodyCall{}, err
	}
	if err := c.check(len(call.params), len(call.args), call.line, call.col); err != nil {
		return bodyCall{}, err
	}
	if c.qubits == 2 && call.args[0] == call.args[1] {
		return bodyCall{}, errf(call.line, call.col, "%s applied to the same qubit twice", c.name)
	}
	return call, nil
}

// lookup resolves the gate named by the current token.
func (p *parser) lookup() (*callee, error) {
	if c, ok := builtins[string(p.tok.text)]; ok {
		return c, nil
	}
	if c, ok := p.defs[string(p.tok.text)]; ok {
		return c, nil
	}
	return nil, errf(p.tok.line, p.tok.col, "unknown gate %q", p.tok.text)
}

// check validates an application's parameter and qubit counts.
func (c *callee) check(params, qubits, line, col int) error {
	if c.params < 0 {
		return nil
	}
	if qubits != c.qubits {
		return errf(line, col, "%s needs %d qubits, got %d", c.name, c.qubits, qubits)
	}
	if params != c.params {
		return errf(line, col, "%s needs %d params, got %d", c.name, c.params, params)
	}
	return nil
}

// paramList parses "(e, e, ...)" starting at '(', calling each for
// every expression, and leaves p.tok on the token after ')'.
func (p *parser) paramList(each func() error) error {
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind != tokRParen {
		for {
			if err := each(); err != nil {
				return err
			}
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	return p.skip(tokRParen)
}

// operand parses a qubit operand starting at its register name and
// leaves p.tok on the token after it.
func (p *parser) operand() (operand, error) {
	if err := p.want(tokIdent); err != nil {
		return operand{}, err
	}
	reg := p.lastReg
	if string(p.tok.text) != reg.name {
		var ok bool
		if reg, ok = p.regs[string(p.tok.text)]; !ok {
			return operand{}, errf(p.tok.line, p.tok.col, "unknown quantum register %q", p.tok.text)
		}
		p.lastReg = reg
	}
	line, col := p.tok.line, p.tok.col
	if err := p.advance(); err != nil {
		return operand{}, err
	}
	if p.tok.kind != tokLBracket {
		return operand{first: reg.off, n: reg.size}, nil
	}
	idx, err := p.bracketed("index", 0)
	if err != nil {
		return operand{}, err
	}
	if idx >= reg.size {
		return operand{}, errf(line, col, "index %d out of range for %s[%d]", idx, reg.name, reg.size)
	}
	return operand{first: reg.off + idx, n: 1}, p.advance()
}

// operands parses a comma-separated operand list into p.ops, ending on
// the ';' after it.
func (p *parser) operands() error {
	p.ops = p.ops[:0]
	for {
		op, err := p.operand()
		if err != nil {
			return err
		}
		p.ops = append(p.ops, op)
		if p.tok.kind != tokComma {
			return p.want(tokSemicolon)
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

// budget refuses a statement that would expand to more than
// maxStatementGates gates, before anything is expanded.
func budget(gates, line, col int, what string) error {
	if gates > maxStatementGates {
		return errf(line, col, "%s expands to more than %d gates in one statement", what, maxStatementGates)
	}
	return nil
}

// measure parses "measure a -> c[i];" (or whole registers) and emits
// one measurement per quantum wire.
func (p *parser) measure() error {
	line, col := p.tok.line, p.tok.col
	if err := p.advance(); err != nil {
		return err
	}
	src, err := p.operand()
	if err != nil {
		return err
	}
	if err := p.want(tokArrow); err != nil {
		return err
	}
	// Classical target: ident with optional index; validated only.
	if err := p.next(tokIdent); err != nil {
		return err
	}
	if _, ok := p.cregs[string(p.tok.text)]; !ok {
		return errf(p.tok.line, p.tok.col, "unknown classical register %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind == tokLBracket {
		if _, err := p.bracketed("index", 0); err != nil {
			return err
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	if err := p.want(tokSemicolon); err != nil {
		return err
	}
	if err := budget(src.n, line, col, "measure"); err != nil {
		return err
	}
	for w := src.first; w < src.first+src.n; w++ {
		p.gates = append(p.gates, circuit.Gate{Kind: circuit.KindMeasure, Q0: w, Q1: -1})
	}
	return nil
}

// barrier emits one barrier per wire of its operands.
func (p *parser) barrier() error {
	line, col := p.tok.line, p.tok.col
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.operands(); err != nil {
		return err
	}
	n := 0
	for _, op := range p.ops {
		n += op.n
	}
	if err := budget(n, line, col, "barrier"); err != nil {
		return err
	}
	for _, op := range p.ops {
		for w := op.first; w < op.first+op.n; w++ {
			p.gates = append(p.gates, circuit.Gate{Kind: circuit.KindBarrier, Q0: w, Q1: -1})
		}
	}
	return nil
}

// application parses a gate application statement and emits its
// elementary gates. Whole-register operands broadcast: they must have
// equal lengths, and single-wire operands repeat.
func (p *parser) application() error {
	line, col := p.tok.line, p.tok.col
	c, err := p.lookup()
	if err != nil {
		return err
	}
	if err := p.advance(); err != nil {
		return err
	}
	p.vals = p.vals[:0]
	if p.tok.kind == tokLParen {
		err := p.paramList(func() error {
			e, err := p.parseExpr(nil)
			if err != nil {
				return err
			}
			v, err := p.eval(e, nil)
			p.vals = append(p.vals, v)
			return err
		})
		if err != nil {
			return err
		}
	}
	if err := p.operands(); err != nil {
		return err
	}
	if err := c.check(len(p.vals), len(p.ops), line, col); err != nil {
		return err
	}
	length := 1
	for _, op := range p.ops {
		if op.n > 1 {
			if length > 1 && op.n != length {
				return errf(line, col, "mismatched register lengths in %q application", c.name)
			}
			length = op.n
		}
	}
	if c.cost == 0 {
		return nil // the identity, or a definition with an empty body
	}
	if err := budget(min(length, maxStatementGates+1)*c.cost, line, col, c.name); err != nil {
		return err
	}
	params := p.vals[:len(p.vals):len(p.vals)]
	for i := 0; i < length; i++ {
		p.wires = p.wires[:0]
		for _, op := range p.ops {
			w := op.first
			if op.n > 1 {
				w += i
			}
			p.wires = append(p.wires, w)
		}
		if err := p.apply(c, params, p.wires, line, col); err != nil {
			return err
		}
	}
	return nil
}

// apply emits the elementary gates of c applied to wires with the
// given parameter values; line and col locate the application for
// errors.
func (p *parser) apply(c *callee, params []float64, wires []int, line, col int) error {
	switch {
	case c.def != nil:
		return p.expand(c.def, params, wires)
	case c.params < 0: // identity
		return nil
	case c.decomp != nil:
		for i, w := range wires {
			if indexOfInt(wires[:i], w) >= 0 {
				return errf(line, col, "%s applied to the same qubit twice", c.name)
			}
		}
		p.gates = append(p.gates, c.decomp(params, wires)...)
		return nil
	}
	g := circuit.Gate{Kind: c.kind, Q0: wires[0], Q1: -1, Params: p.retain(params)}
	if c.qubits == 2 {
		if wires[0] == wires[1] {
			return errf(line, col, "%s applied to the same qubit twice", c.name)
		}
		g.Q1 = wires[1]
	}
	p.gates = append(p.gates, g)
	return nil
}

// expand inlines one application of a user definition. Parameter and
// wire values for each body call are pushed on p.vals and p.wires and
// popped after it, so nested expansions share the two stacks; a
// caller's slices stay valid because only space above them is reused.
func (p *parser) expand(d *gateDef, params []float64, wires []int) error {
	for i := range d.body {
		call := &d.body[i]
		vm, wm := len(p.vals), len(p.wires)
		for _, e := range call.params {
			v, err := p.eval(e, params)
			if err != nil {
				return err
			}
			p.vals = append(p.vals, v)
		}
		for _, a := range call.args {
			p.wires = append(p.wires, wires[a])
		}
		err := p.apply(call.c, p.vals[vm:len(p.vals):len(p.vals)], p.wires[wm:len(p.wires):len(p.wires)], call.line, call.col)
		p.vals, p.wires = p.vals[:vm], p.wires[:wm]
		if err != nil {
			return err
		}
	}
	return nil
}

// retain copies parameter values into the slab and returns the copy
// (nil for none). Slabs are never reused, so the copy outlives every
// scratch buffer. They double from 16 parameters up to maxSlab, so a
// small circuit does not carry a large slab.
func (p *parser) retain(vals []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	if cap(p.slab)-len(p.slab) < len(vals) {
		p.slab = make([]float64, 0, max(min(2*cap(p.slab), maxSlab), 16, len(vals)))
	}
	n := len(p.slab)
	p.slab = append(p.slab, vals...)
	return p.slab[n:len(p.slab):len(p.slab)]
}

// indexOfInt returns the index of v in s, or -1.
func indexOfInt(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
