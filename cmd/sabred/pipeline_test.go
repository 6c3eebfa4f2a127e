package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/qasm"
	"repro/internal/workloads"
)

func TestCompileResponseCarriesPassMetrics(t *testing.T) {
	ts, _ := newTestServer(t)

	// Plain request: the route stage alone is instrumented.
	resp, out := postQASM(t, ts.URL+"/compile?device=tokyo&seed=5", qasm.Format(workloads.QFT(6)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Passes) != 1 || out.Passes[0].Pass != "route" {
		t.Fatalf("passes = %+v, want a single route entry", out.Passes)
	}
	if out.Passes[0].Gates <= 0 || out.Passes[0].Depth <= 0 {
		t.Fatalf("route metric has empty snapshot: %+v", out.Passes[0])
	}

	// Requesting passes via the query string runs and reports them.
	resp, out = postQASM(t, ts.URL+"/compile?device=tokyo&seed=5&passes=peephole,basis,verify",
		qasm.Format(workloads.QFT(6)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := []string{"route", "peephole", "basis", "verify"}
	if len(out.Passes) != len(want) {
		t.Fatalf("passes = %+v, want %v", out.Passes, want)
	}
	for i, m := range out.Passes {
		if m.Pass != want[i] {
			t.Fatalf("pass %d = %q, want %q", i, m.Pass, want[i])
		}
	}
	// Basis lowering means the returned QASM contains no symbolic swap.
	if strings.Contains(out.QASM, "swap") {
		t.Fatal("basis pass requested but returned QASM still has swaps")
	}
}

func TestCompileJSONEnvelopeTrialsAndPasses(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := json.Marshal(compileRequest{
		QASM:    qasm.Format(workloads.QFT(6)),
		Device:  "tokyo",
		Options: optionsRequest{Seed: 4},
		Trials:  7,
		Passes:  []string{"peephole", "verify"},
	})
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(string(req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out compileResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Passes) != 3 {
		t.Fatalf("passes = %+v, want route+peephole+verify", out.Passes)
	}
}

func TestCompileRejectsBadPass(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := postQASM(t, ts.URL+"/compile?device=tokyo&passes=route", qasm.Format(workloads.GHZ(4)))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for a non-post-routing pass", resp.StatusCode)
	}
}

func TestClientDisconnectCancelsJob(t *testing.T) {
	ts, srv := newTestServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	// Heavy enough that the compile is reliably still in flight when
	// the client walks away 20ms in: the bitset-scoring router finishes
	// a qft_18 trial in well under a millisecond, so small trial
	// counts complete before the cancellation can land.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/compile?device=tokyo&trials=10000&seed=99", strings.NewReader(qasm.Format(workloads.QFT(18))))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel() // client walks away mid-compile
	if err := <-errc; err == nil {
		t.Fatal("expected the cancelled request to fail client-side")
	}

	// The engine must not keep compiling: wait for the worker to
	// settle and check no result was produced for the request.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := srv.eng.Stats()
		if st.Jobs >= 1 && st.Errors >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("engine never recorded the cancelled job as an error: %+v", srv.eng.Stats())
}
