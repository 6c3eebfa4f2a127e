package pipeline

import (
	"errors"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/qasm"
	"repro/internal/sched"
	"repro/internal/transpile"
	"repro/internal/verify"
)

// ParsePass turns pc.Source (OpenQASM 2.0) into pc.Circuit.
type ParsePass struct{}

// Name implements Pass.
func (ParsePass) Name() string { return "parse" }

// Run implements Pass.
func (ParsePass) Run(pc *Ctx) error {
	if pc.Source == "" {
		return errors.New("no QASM source in context")
	}
	c, err := qasm.Parse(pc.Source)
	if err != nil {
		return err
	}
	pc.Circuit = c
	return nil
}

// CalibratePass pins the pipeline to the device's live calibration
// snapshot: when the device has one, the snapshot's noise model
// replaces pc.Options.Noise for every later pass (layout and routing
// become reliability-weighted automatically) and pc.CalVersion records
// the version. Devices without a calibration make it a no-op, so the
// pass is safe to include unconditionally ahead of layout/route.
type CalibratePass struct{}

// Name implements Pass.
func (CalibratePass) Name() string { return "calibrate" }

// Run implements Pass.
func (CalibratePass) Run(pc *Ctx) error {
	if pc.Device == nil {
		return errors.New("no device in context")
	}
	if snap := pc.Device.Calibration(); snap != nil {
		pc.Options.Noise = snap.Model
		pc.CalVersion = snap.Version
	}
	return nil
}

// LayoutPass runs SABRE's reverse-traversal initial-mapping search
// (the role SabreLayout plays in production compilers) and records the
// improved layout in pc.Layout for a subsequent RoutePass.
type LayoutPass struct{}

// Name implements Pass.
func (LayoutPass) Name() string { return "layout" }

// Run implements Pass.
func (LayoutPass) Run(pc *Ctx) error {
	if pc.Circuit == nil {
		return errors.New("no circuit in context")
	}
	l, err := core.InitialMapping(pc.Circuit, pc.Device, pc.Options)
	if err != nil {
		return err
	}
	pc.Layout = l
	return nil
}

// TrialRunner is core.TrialRunner, the bounded-pool best-of-N routing
// backend RoutePass runs by default, under the name the facade and
// sabrebench use.
type TrialRunner = core.TrialRunner

// RoutePass maps the working circuit onto the device. With pc.Layout
// set (a preceding LayoutPass), it routes a single forward traversal
// from that layout; otherwise it delegates to Router — by default the
// bounded-pool TrialRunner running the paper's best-of-N protocol.
type RoutePass struct {
	// Router overrides the routing backend (nil = TrialRunner with
	// this pass's Trials/Workers/Patience). Any backend from the
	// router registry (internal/route) drops in here.
	Router core.Router
	// Trials overrides Options.Trials for the default TrialRunner.
	Trials int
	// Workers bounds the default TrialRunner's pool.
	Workers int
	// Patience enables the default TrialRunner's adaptive early exit
	// (stop after this many consecutive non-improving trials; 0 =
	// exhaustive).
	Patience int
}

// Name implements Pass.
func (p RoutePass) Name() string {
	if p.Router != nil {
		return "route:" + p.Router.Name()
	}
	return "route"
}

// Run implements Pass.
func (p RoutePass) Run(pc *Ctx) error {
	if pc.Circuit == nil {
		return errors.New("no circuit in context")
	}
	pc.Original = pc.Circuit
	var (
		res *core.Result
		err error
	)
	switch {
	case p.Router != nil:
		res, err = p.Router.Route(pc.Context(), pc.Circuit, pc.Device, pc.Options)
	case pc.Layout.Size() > 0:
		res, err = core.CompileWithLayout(pc.Circuit, pc.Device, pc.Layout, pc.Options)
	default:
		tr := TrialRunner{Trials: p.Trials, Workers: p.Workers, Patience: p.Patience}
		res, err = tr.Route(pc.Context(), pc.Circuit, pc.Device, pc.Options)
	}
	if err != nil {
		return err
	}
	pc.Result = res
	pc.Circuit = res.Circuit
	return nil
}

// BasisPass lowers the working circuit to the IBM native gate set
// {u1, u2, u3, CX} (SWAPs become 3 CNOTs), so the output QASM is
// directly executable.
type BasisPass struct{}

// Name implements Pass.
func (BasisPass) Name() string { return "basis" }

// Run implements Pass.
func (BasisPass) Run(pc *Ctx) error {
	if pc.Circuit == nil {
		return errors.New("no circuit in context")
	}
	pc.Circuit = transpile.ToIBMBasis(pc.Circuit)
	return nil
}

// PeepholePass applies semantics-preserving local rewrites (cancel
// self-inverse pairs, merge rotations) until fixpoint, reclaiming
// gates the mechanical SWAP insertion left on the table.
type PeepholePass struct {
	// Options configures the optimizer; the zero value selects
	// opt.DefaultOptions.
	Options opt.Options
}

// Name implements Pass.
func (PeepholePass) Name() string { return "peephole" }

// Run implements Pass.
func (p PeepholePass) Run(pc *Ctx) error {
	if pc.Circuit == nil {
		return errors.New("no circuit in context")
	}
	opts := p.Options
	if opts == (opt.Options{}) {
		opts = opt.DefaultOptions()
	}
	r := opt.Optimize(pc.Circuit, opts)
	pc.Opt = &r
	pc.Circuit = r.Circuit
	return nil
}

// SchedulePass computes the time-step (moments) view of the working
// circuit and stores it in pc.Schedule.
type SchedulePass struct {
	// ALAP selects as-late-as-possible scheduling (default ASAP).
	ALAP bool
}

// Name implements Pass.
func (SchedulePass) Name() string { return "schedule" }

// Run implements Pass.
func (p SchedulePass) Run(pc *Ctx) error {
	if pc.Circuit == nil {
		return errors.New("no circuit in context")
	}
	if p.ALAP {
		pc.Schedule = sched.ALAP(pc.Circuit)
	} else {
		pc.Schedule = sched.ASAP(pc.Circuit)
	}
	return pc.Schedule.Valid()
}

// VerifyPass checks the working circuit: hardware compliance against
// the device always, and exact GF(2) equivalence to the pre-routing
// circuit under the recorded layouts whenever both are linear (CX/SWAP
// only). A failure aborts the pipeline — routing-validity errors never
// reach the caller silently.
type VerifyPass struct{}

// Name implements Pass.
func (VerifyPass) Name() string { return "verify" }

// Run implements Pass.
func (VerifyPass) Run(pc *Ctx) error {
	if pc.Circuit == nil {
		return errors.New("no circuit in context")
	}
	if pc.Device != nil {
		if err := verify.HardwareCompliant(pc.Circuit.DecomposeSwaps(), pc.Device.Connected); err != nil {
			return err
		}
	}
	if pc.Result == nil || pc.Original == nil {
		return nil
	}
	// Exact equivalence is decidable over GF(2) for linear circuits.
	// Prefer the current working circuit (verifying what later passes
	// actually produced); fall back to the router's raw output when a
	// pass (basis lowering) left the linear fragment.
	routed := pc.Circuit
	if !linear(routed) {
		routed = pc.Result.Circuit
	}
	if linear(pc.Original) && linear(routed) {
		return verify.CheckRouted(pc.Original, routed, pc.Result.InitialLayout, pc.Result.FinalLayout)
	}
	return nil
}

// linear reports whether c consists solely of CX and SWAP gates.
func linear(c *circuit.Circuit) bool {
	for _, g := range c.Gates() {
		if g.Kind != circuit.KindCX && g.Kind != circuit.KindSwap {
			return false
		}
	}
	return true
}
