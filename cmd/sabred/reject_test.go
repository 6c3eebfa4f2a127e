package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/qasm"
	"repro/internal/workloads"
)

const tinyQASM = "OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[1];\ncx q[0],q[2];\n"

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestCompileRejectsInvalidParams covers every client-error rejection
// path: invalid trials, passes, and route values must produce 400 (the
// client's fault), never 500/422, in both the JSON envelope and the
// query-parameter form.
func TestCompileRejectsInvalidParams(t *testing.T) {
	ts, _ := newTestServer(t)

	jsonCases := map[string]string{
		"negative trials":          `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "trials": -1}`,
		"negative options.trials":  `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "options": {"trials": -4}}`,
		"oversized trials":         `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "trials": 1000000000}`,
		"oversized options.trials": `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "options": {"trials": 20000}}`,
		"non-post-routing pass":    `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "passes": ["layout"]}`,
		"unknown pass":             `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "passes": ["polish"]}`,
		"unknown route":            `{"qasm": "` + escaped(tinyQASM) + `", "device": "line:3", "route": "warp-drive"}`,
	}
	for name, body := range jsonCases {
		if resp := postJSON(t, ts.URL+"/compile", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("JSON %s: status %d, want 400", name, resp.StatusCode)
		}
	}

	queryCases := map[string]string{
		"non-numeric trials":    "?device=line:3&trials=many",
		"zero trials":           "?device=line:3&trials=0",
		"negative trials":       "?device=line:3&trials=-2",
		"oversized trials":      "?device=line:3&trials=1000000000",
		"non-post-routing pass": "?device=line:3&passes=layout",
		"unknown pass":          "?device=line:3&passes=polish",
		"unknown route":         "?device=line:3&route=warp-drive",
	}
	for name, query := range queryCases {
		resp, _ := postQASM(t, ts.URL+"/compile"+query, tinyQASM)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestCompileAcceptsRegistryRouters drives one compile per registered
// backend spelling through both request forms.
func TestCompileAcceptsRegistryRouters(t *testing.T) {
	ts, _ := newTestServer(t)
	src := qasm.Format(workloads.GHZ(5))

	for _, name := range []string{"sabre", "greedy", "astar", "anneal", "tokenswap", "bka"} {
		resp, out := postQASM(t, ts.URL+"/compile?device=tokyo&route="+name, src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query route=%s: status %d", name, resp.StatusCode)
		}
		if out.QASM == "" {
			t.Fatalf("query route=%s: empty QASM", name)
		}
	}

	body := `{"qasm": "` + escaped(qasm.Format(workloads.GHZ(4))) + `", "device": "line:5", "route": "tokenswap"}`
	if resp := postJSON(t, ts.URL+"/compile", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON route=tokenswap: status %d", resp.StatusCode)
	}
}

// escaped turns raw QASM into a JSON string body fragment (without
// the surrounding quotes, which the call sites supply).
func escaped(s string) string {
	b, _ := json.Marshal(s)
	return strings.Trim(string(b), `"`)
}

// TestCompileRejectsHostileGateDefinitions: a gate body that calls
// itself, and a definition chain whose expansion would run to a million
// gates, are client errors on every compile path (sync, streamed and
// async). The parser refuses both before expanding anything, so the
// daemon answers 400 and keeps serving.
func TestCompileRejectsHostileGateDefinitions(t *testing.T) {
	ts, _ := newTestServer(t)

	var bomb strings.Builder
	bomb.WriteString("OPENQASM 2.0;\nqreg q[2];\ngate g0 a { x a; x a; }\n")
	for i := 1; i < 20; i++ {
		fmt.Fprintf(&bomb, "gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	bomb.WriteString("g19 q[0];\n")
	hostile := map[string]string{
		"recursive": "OPENQASM 2.0;\nqreg q[2];\ngate foo a { foo a; }\nfoo q[0];\n",
		"bomb":      bomb.String(),
	}
	for name, src := range hostile {
		if resp, _ := postQASM(t, ts.URL+"/compile?device=tokyo", src); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s /compile: status %d, want 400", name, resp.StatusCode)
		}
		resp, err := http.Post(ts.URL+"/compile?stream=1&device=tokyo", "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s stream: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s /compile?stream=1: status %d, want 400", name, resp.StatusCode)
		}
		if resp, _ := postJobJSON(t, ts.URL+"/jobs", compileRequest{QASM: src, Device: "tokyo"}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s /jobs: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Still up and compiling.
	resp, out := postQASM(t, ts.URL+"/compile?device=tokyo", tinyQASM)
	if resp.StatusCode != http.StatusOK || out.QASM == "" {
		t.Fatalf("compile after hostile requests: status %d", resp.StatusCode)
	}
}
