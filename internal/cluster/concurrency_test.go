package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"svwsim/internal/api"
	"svwsim/internal/sim"
	"svwsim/internal/sim/engine"
)

// jobKey is the routing key of one (config, bench, testInsts) job.
func jobKey(t *testing.T, config, bench string) string {
	t.Helper()
	cfg, ok := sim.ConfigByName(config)
	if !ok {
		t.Fatalf("unknown config %q", config)
	}
	return engine.Fingerprint(cfg, bench, testInsts)
}

// TestConcurrentClients hammers the coordinator from many goroutines with
// a mix of runs, buffered sweeps, SSE sweeps and stats reads; run under
// -race (ci.sh does) this is the fabric's data-race gate. Hedging is
// enabled with an aggressive delay so the speculative path races the
// primary constantly, and every response must still be a clean 200.
func TestConcurrentClients(t *testing.T) {
	f := newFabric(t, 2, Options{
		BackendConcurrency: 4,
		HedgeAfter:         2 * time.Millisecond,
	}, nil)
	runBody := fmt.Sprintf(`{"config":"ssq","bench":"gcc","insts":%d}`, testInsts)
	sweepB := sweepBody([]string{"ssq", "nlq"}, []string{"gcc"})
	sseHdr := map[string]string{"Accept": "text/event-stream"}

	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				var w *httptest.ResponseRecorder
				switch (c + i) % 4 {
				case 0:
					w = f.do("POST", "/v1/run", runBody, nil)
				case 1:
					w = f.do("POST", "/v1/sweep", sweepB, nil)
				case 2:
					w = f.do("POST", "/v1/sweep", sweepB, sseHdr)
				default:
					w = f.do("GET", "/v1/stats", "", nil)
				}
				mu.Lock()
				codes[w.Code]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for code, n := range codes {
		if code != http.StatusOK {
			t.Errorf("%d responses with HTTP %d, want only 200s", n, code)
		}
	}
	// Every job was counted exactly once despite the hedging storm.
	st := f.stats(t)
	wantJobs := uint64(0)
	for c := 0; c < 8; c++ {
		for i := 0; i < 6; i++ {
			switch (c + i) % 4 {
			case 0:
				wantJobs++
			case 1, 2:
				wantJobs += 2
			}
		}
	}
	if st.Cluster.Jobs+st.Cluster.JobErrors != wantJobs {
		t.Fatalf("jobs %d + errors %d, want exactly %d",
			st.Cluster.Jobs, st.Cluster.JobErrors, wantJobs)
	}
	if st.Cluster.JobErrors != 0 {
		t.Fatalf("%d job errors under concurrency", st.Cluster.JobErrors)
	}
}

// stragglerFabric builds a two-backend fabric whose backend homing config's
// run holds every /v1/run until release is called or the attempt is
// cancelled: a run of config can only be answered by a hedge to the other
// backend, fast, while the hold lasts. The hold is released at cleanup at
// the latest.
func stragglerFabric(t *testing.T) (f *fabric, config string, fast *httptest.Server, release func()) {
	t.Helper()
	hold := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	wrap, holdOn := faultOn(func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/run" {
				select {
				case <-hold:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	f = newFabric(t, 2, Options{HedgeAfter: 20 * time.Millisecond}, wrap)
	t.Cleanup(release) // runs before the fabric's own cleanups

	config = "ssq"
	held := f.homeOf(jobKey(t, config, "gcc"))
	holdOn(held)
	return f, config, f.backends[1-held], release
}

// runWhileHeld posts a run of config and waits for the answer, which has to
// come from a hedge: the primary backend is held until the answer arrives.
func runWhileHeld(t *testing.T, f *fabric, config, traceID string, release func()) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(api.RunRequest{Config: config, Bench: "gcc", Insts: testInsts})
	hdr := map[string]string{api.TraceHeader: traceID}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- f.do("POST", "/v1/run", string(body), hdr) }()
	select {
	case w := <-done:
		release()
		return w
	case <-time.After(30 * time.Second):
		release()
		t.Fatal("no answer while the primary backend was held: the hedge never fired")
		return nil
	}
}

// awaitPrimaryAbandoned polls the coordinator's trace ring until the primary
// attempt of traceID is marked abandoned: the losing attempt observes its
// cancellation asynchronously, possibly after the response.
func awaitPrimaryAbandoned(t *testing.T, f *fabric, traceID string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ct := coordTrace(t, f, traceID)
		for _, sp := range ct.Spans {
			if sp.Name == "attempt" && sp.Attrs["walk"] == "primary" &&
				sp.Attrs["outcome"] == "abandoned" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary attempt never marked abandoned; trace %+v", ct)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// dispatchSpan returns the coordinator's dispatch span of traceID.
func dispatchSpan(t *testing.T, f *fabric, traceID string) api.SpanJSON {
	t.Helper()
	ct := coordTrace(t, f, traceID)
	for _, sp := range ct.Spans {
		if sp.Name == "dispatch" {
			return sp
		}
	}
	t.Fatalf("no dispatch span: %+v", ct)
	return api.SpanJSON{}
}

// TestHedgedRequestWinsOverStraggler: a backend that does not answer gets
// hedged onto the fast fallback, the client sees the fast answer, and the
// hedge is accounted (without double-counting the job). The straggler is
// held until the answer arrives, so the hedge wins by construction rather
// than by beating a timer.
func TestHedgedRequestWinsOverStraggler(t *testing.T) {
	f, config, _, release := stragglerFabric(t)
	w := runWhileHeld(t, f, config, "hedge-wins-1", release)
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), refRunBody(t, config, "gcc")) {
		t.Fatal("hedged response differs from reference")
	}
	if d := dispatchSpan(t, f, "hedge-wins-1"); d.Attrs["winner"] != "hedge" {
		t.Fatalf("dispatch attrs %v, want winner=hedge", d.Attrs)
	}
	awaitPrimaryAbandoned(t, f, "hedge-wins-1")
	st := f.stats(t)
	if st.Cluster.Hedges == 0 || st.Cluster.HedgeWins == 0 {
		t.Fatalf("hedges %d wins %d, want both > 0", st.Cluster.Hedges, st.Cluster.HedgeWins)
	}
	if st.Cluster.Jobs != 1 {
		t.Fatalf("jobs %d, want exactly 1 (hedge must not double-count)", st.Cluster.Jobs)
	}
}
