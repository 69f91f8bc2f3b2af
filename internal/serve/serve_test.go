package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/failurelog"
	"repro/internal/gen"
	"repro/internal/obs"
)

// fixture holds the shared serving stack: a bundle large enough that a
// multi-fault diagnosis takes well over 50ms (so deadline tests are
// meaningful) and a minimally trained framework (serving robustness tests
// don't need accuracy).
type fixture struct {
	bundle *dataset.Bundle
	fw     *core.Framework
	heavy  *failurelog.Log // multi-fault log whose diagnosis takes >>50ms
	light  *failurelog.Log // single-fault log
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		p, _ := gen.ProfileByName("aes")
		p = p.Scaled(0.3)
		b, err := dataset.Build(p, dataset.Syn1, dataset.BuildOptions{Seed: 1})
		if err != nil {
			fixErr = err
			return
		}
		train := b.Generate(dataset.SampleOptions{Count: 40, Seed: 2, MIVFraction: 0.25})
		fw, err := core.Train(train, core.TrainOptions{Seed: 3, Epochs: 6, SkipClassifier: true})
		if err != nil {
			fixErr = err
			return
		}
		multi := b.Generate(dataset.SampleOptions{Count: 1, Seed: 4, MultiFault: true})
		single := b.Generate(dataset.SampleOptions{Count: 1, Seed: 5})
		if len(multi) == 0 || len(single) == 0 {
			fixErr = errors.New("fixture: no samples generated")
			return
		}
		fix = &fixture{bundle: b, fw: fw, heavy: multi[0].Log, light: single[0].Log}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func newTestServer(t *testing.T, fx *fixture, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := New(fx.bundle, fx.fw, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL, Seed: 1}
	return s, ts, c
}

func TestHealthAndReady(t *testing.T) {
	fx := getFixture(t)
	s, _, c := newTestServer(t, fx, Config{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatal(err)
	}
	// No framework loaded -> not ready, still healthy.
	s.SetFramework(nil)
	if err := c.Ready(ctx); err == nil {
		t.Fatal("ready with no framework")
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	s.SetFramework(fx.fw)
}

func TestDiagnoseEndToEnd(t *testing.T) {
	fx := getFixture(t)
	_, _, c := newTestServer(t, fx, Config{})
	resp, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Design != fx.light.Design {
		t.Fatalf("design %q != %q", resp.Design, fx.light.Design)
	}
	if resp.ATPGResolution == 0 || len(resp.Candidates) == 0 {
		t.Fatalf("empty report for a failing chip: atpg=%d final=%d", resp.ATPGResolution, len(resp.Candidates))
	}
	if resp.Confidence <= 0 || resp.Confidence > 1 {
		t.Fatalf("confidence %v out of range", resp.Confidence)
	}
}

// TestDeadlineEnforced is the acceptance criterion: a request with a 50ms
// deadline against a large (multi-fault) diagnosis must come back with a
// deadline error in under 200ms, instead of running the full diagnosis.
func TestDeadlineEnforced(t *testing.T) {
	fx := getFixture(t)
	_, _, c := newTestServer(t, fx, Config{})

	// Uncancelled, the heavy log takes well over the 50ms deadline; the
	// fixture guarantees this (see probe: ~90ms at scale 0.3, more under
	// -race). Sanity-check once with a generous deadline.
	full, err := c.Diagnose(context.Background(), fx.heavy, DiagnoseOptions{Multi: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.ElapsedMS < 50 {
		t.Skipf("machine diagnoses the heavy log in %.1fms (<50ms); deadline test not meaningful here", full.ElapsedMS)
	}

	start := time.Now()
	_, err = c.Diagnose(context.Background(), fx.heavy, DiagnoseOptions{Multi: true, Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want StatusError 504", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("50ms-deadline request took %v, want <200ms", elapsed)
	}
}

// TestAdmissionQueueSheds exercises the bounded admission queue directly:
// with every slot and queue position taken, the next admit is shed with
// 429 semantics instead of waiting.
func TestAdmissionQueueSheds(t *testing.T) {
	fx := getFixture(t)
	s := New(fx.bundle, fx.fw, Config{MaxConcurrent: 1, MaxQueue: 1})

	// Occupy the single execution slot.
	release, status, _ := s.admit(context.Background())
	if release == nil {
		t.Fatalf("first admit shed with status %d", status)
	}

	// Occupy the single queue position.
	queuedCtx, queuedCancel := context.WithCancel(context.Background())
	queuedDone := make(chan int, 1)
	go func() {
		rel, st, _ := s.admit(queuedCtx)
		if rel != nil {
			rel()
		}
		queuedDone <- st
	}()
	waitUntil(t, time.Second, func() bool { return s.queued.Load() == 1 })

	// Queue full: immediate shed with 429.
	if rel, st, msg := s.admit(context.Background()); rel != nil || st != http.StatusTooManyRequests {
		t.Fatalf("admit = (released=%v, %d, %q), want 429 shed", rel != nil, st, msg)
	}

	// The queued waiter, cancelled, reports 503 and frees its queue slot.
	queuedCancel()
	if st := <-queuedDone; st != http.StatusServiceUnavailable {
		t.Fatalf("cancelled queued admit returned %d, want 503", st)
	}
	waitUntil(t, time.Second, func() bool { return s.queued.Load() == 0 })

	// A queued request whose deadline expires while waiting gets 504.
	expiredCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	if rel, st, _ := s.admit(expiredCtx); rel != nil || st != http.StatusGatewayTimeout {
		t.Fatalf("deadline-expired admit = (released=%v, %d), want 504", rel != nil, st)
	}

	// Queue drained: releasing the slot lets a new request in directly.
	release()
	rel, st, _ := s.admit(context.Background())
	if rel == nil {
		t.Fatalf("admit after release shed with %d", st)
	}
	rel()
}

// TestQueueShedsOverHTTP floods a 1-slot/1-queue server with slow requests
// and asserts at least one 429 with a Retry-After hint comes back while
// admitted requests still succeed or time out cleanly.
func TestQueueShedsOverHTTP(t *testing.T) {
	fx := getFixture(t)
	_, ts, _ := newTestServer(t, fx, Config{MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})

	var body bytes.Buffer
	if err := failurelog.Write(&body, fx.heavy); err != nil {
		t.Fatal(err)
	}
	const flood = 6
	statuses := make(chan int, flood)
	retryAfter := make(chan string, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/diagnose?multi=1", "text/plain", bytes.NewReader(body.Bytes()))
			if err != nil {
				statuses <- -1
				return
			}
			defer resp.Body.Close()
			statuses <- resp.StatusCode
			retryAfter <- resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	close(statuses)
	close(retryAfter)
	counts := map[int]int{}
	for st := range statuses {
		counts[st]++
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429 during flood: %v", counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded during flood: %v", counts)
	}
	sawHint := false
	for ra := range retryAfter {
		if ra != "" {
			if ra != "2" {
				t.Fatalf("Retry-After = %q, want \"2\"", ra)
			}
			sawHint = true
		}
	}
	if !sawHint {
		t.Fatal("no Retry-After hint on shed responses")
	}
}

// TestPanicIsolation sends a request that panics inside diagnosis (nil
// bundle) and asserts the server answers 500 and keeps serving.
func TestPanicIsolation(t *testing.T) {
	fx := getFixture(t)
	s := New(nil, fx.fw, Config{}) // nil bundle: diagnose will panic
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body bytes.Buffer
	if err := failurelog.Write(&body, fx.light); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/diagnose", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	// The process — and the handler — must still be alive.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight count leaked: %d", s.Inflight())
	}
}

// TestBacktracePanicIsolation sends a request whose back-trace panics on
// the goroutine it runs on beside diagnosis (a bundle without a graph) and
// asserts the panic still reaches the handler's recover: the server
// answers 500, with the panic value but not the worker's stack, and keeps
// serving.
func TestBacktracePanicIsolation(t *testing.T) {
	fx := getFixture(t)
	broken := *fx.bundle
	broken.Graph = nil
	s := New(&broken, fx.fw, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for k := 0; k < 2; k++ {
		var body bytes.Buffer
		if err := failurelog.Write(&body, fx.light); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/diagnose", "text/plain", &body)
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", k, resp.StatusCode)
		}
		if err != nil || !strings.Contains(er.Error, "nil pointer") || strings.Contains(er.Error, "goroutine") {
			t.Fatalf("request %d: body %q (%v), want the panic value without a stack", k, er.Error, err)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight count leaked: %d", s.Inflight())
	}
}

// TestDrainSemantics: StartDrain flips readiness and sheds new diagnoses
// while health stays green.
func TestDrainSemantics(t *testing.T) {
	fx := getFixture(t)
	s, ts, c := newTestServer(t, fx, Config{})
	ctx := context.Background()
	s.StartDrain()
	if err := c.Ready(ctx); err == nil {
		t.Fatal("ready while draining")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
			t.Fatalf("readyz err = %v, want 503", err)
		}
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health during drain: %v", err)
	}
	var body bytes.Buffer
	if err := failurelog.Write(&body, fx.light); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/diagnose", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("diagnose during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
}

// TestHotReload saves two framework versions, corrupts the newest, and
// asserts Reload quarantines it and serves the older valid one — the
// served framework is swapped only after validation.
func TestHotReload(t *testing.T) {
	fx := getFixture(t)
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	save := func() string {
		path, _, err := store.Save("framework", func(w io.Writer) error { return fx.fw.Save(w) })
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	save()
	p2 := save()

	s, _, c := newTestServer(t, fx, Config{})
	s.EnableReload(store, "framework")
	v, err := s.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("reloaded v%d, want 2", v)
	}

	// Corrupt v2 (flip one payload bit): reload must quarantine it and
	// fall back to v1 without ever serving a broken framework.
	corruptFile(t, p2)
	v, err = c.Reload(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("reloaded v%d after corruption, want fallback to 1", v)
	}
	if q, _ := store.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantine = %v, want the corrupt v2", q)
	}
	if s.Framework() == nil {
		t.Fatal("framework unloaded by failed reload")
	}

	// Diagnosis still works on the reloaded framework.
	if _, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestReloadValidationFailureKeepsServing seals a syntactically intact but
// semantically invalid artifact (valid checksum, garbage JSON) and asserts
// the running framework survives the failed reload.
func TestReloadValidationFailureKeepsServing(t *testing.T) {
	fx := getFixture(t)
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Save("framework", func(w io.Writer) error {
		_, err := w.Write([]byte(`{"not":"a framework"}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s, _, _ := newTestServer(t, fx, Config{})
	s.EnableReload(store, "framework")
	before := s.Framework()
	if _, err := s.Reload(); err == nil {
		t.Fatal("reload of invalid framework succeeded")
	}
	if s.Framework() != before {
		t.Fatal("failed reload swapped the framework")
	}
}

// TestClientRetryHonorsRetryAfter runs the client against a stub that sheds
// twice with Retry-After: 0 before succeeding, and asserts three attempts
// were made; then against a permanent 400, asserting no retries.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	var calls int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shed"}`)
			return
		}
		fmt.Fprint(w, `{"design":"stub","candidates":[]}`)
	}))
	defer stub.Close()
	c := &Client{Base: stub.URL, Seed: 7}
	fx := getFixture(t)
	resp, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("%d calls, want 3 (2 sheds + success)", calls)
	}
	if resp.Design != "stub" {
		t.Fatalf("design %q", resp.Design)
	}

	calls = 0
	stub2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad log"}`)
	}))
	defer stub2.Close()
	c2 := &Client{Base: stub2.URL, Seed: 7}
	_, err = c2.Diagnose(context.Background(), fx.light, DiagnoseOptions{})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if calls != 1 {
		t.Fatalf("%d calls for permanent failure, want 1", calls)
	}
}

// TestClientGivesUpAfterMaxAttempts asserts the retry loop terminates
// against a server that always sheds.
func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var calls int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer stub.Close()
	c := &Client{Base: stub.URL, MaxAttempts: 3, Seed: 7}
	fx := getFixture(t)
	_, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{})
	if err == nil {
		t.Fatal("expected error")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped StatusError 503", err)
	}
	if calls != 3 {
		t.Fatalf("%d calls, want 3", calls)
	}
}

// TestParseRetryAfter covers both RFC 9110 forms of the header: delay
// seconds and HTTP dates (past dates clamp to zero), plus the unparsable
// fallbacks.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"7", 7 * time.Second, true},
		{"-3", 0, false},
		{"soon", 0, false},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		// RFC 850 and asctime forms are legal HTTP dates too.
		{now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second, true},
	}
	for _, tc := range cases {
		got, ok := parseRetryAfter(tc.in, now)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestClientRetryAfterHTTPDate sheds once with an HTTP-date Retry-After
// ~2s in the future and asserts the client actually waited for it (a
// fallback to the default 100ms backoff would retry far too early).
func TestClientRetryAfterHTTPDate(t *testing.T) {
	var calls int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"design":"stub","candidates":[]}`)
	}))
	defer stub.Close()
	c := &Client{Base: stub.URL, Seed: 7}
	fx := getFixture(t)
	start := time.Now()
	if _, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("%d calls, want 2", calls)
	}
	// HTTP dates have 1s resolution, so the honored wait is 1–2s.
	if elapsed := time.Since(start); elapsed < 800*time.Millisecond {
		t.Fatalf("retried after %v; the HTTP-date Retry-After was not honored", elapsed)
	}
}

// TestClientMaxElapsed runs the client against a server that always sheds
// with a generous Retry-After and asserts MaxElapsed cuts the call off
// instead of sleeping through every attempt.
func TestClientMaxElapsed(t *testing.T) {
	var calls int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer stub.Close()
	c := &Client{Base: stub.URL, MaxAttempts: 10, MaxElapsed: 300 * time.Millisecond, Seed: 7}
	fx := getFixture(t)
	start := time.Now()
	_, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want a retry-budget error", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped StatusError 503", err)
	}
	if calls != 1 {
		t.Fatalf("%d calls, want 1 (the 2s Retry-After exceeds the 300ms budget)", calls)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("call took %v; MaxElapsed did not stop the retry sleep", elapsed)
	}
}

// TestHealthzArtifactInfo asserts /healthz reports the serving identity:
// design, build, and the loaded artifact's version and checksum.
func TestHealthzArtifactInfo(t *testing.T) {
	fx := getFixture(t)
	s, ts, _ := newTestServer(t, fx, Config{})
	s.SetArtifactInfo(ArtifactInfo{Model: "framework", Version: 3, Checksum: "00cafe0000000042"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Design != fx.bundle.Name || h.Build == "" {
		t.Fatalf("healthz = %+v, want ok with design %q and a build string", h, fx.bundle.Name)
	}
	if h.Model != "framework" || h.Version != 3 || h.Checksum != "00cafe0000000042" {
		t.Fatalf("healthz artifact info = %+v, want the values set via SetArtifactInfo", h.ArtifactInfo)
	}
}

func TestBadRequests(t *testing.T) {
	fx := getFixture(t)
	_, ts, _ := newTestServer(t, fx, Config{})
	// Garbage body.
	resp, err := http.Post(ts.URL+"/diagnose", "text/plain", strings.NewReader("not a faillog"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", resp.StatusCode)
	}
	// Bad timeout.
	resp, err = http.Post(ts.URL+"/diagnose?timeout_ms=-5", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: %d, want 400", resp.StatusCode)
	}
	// GET on a POST route.
	resp, err = http.Get(ts.URL + "/diagnose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET diagnose: %d, want 405", resp.StatusCode)
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsEndpoint floods the server with K diagnoses and asserts the
// request counter on /metrics equals exactly K — the same invariant the
// serve_smoke.sh CI step checks against a real binary.
func TestMetricsEndpoint(t *testing.T) {
	fx := getFixture(t)
	reg := obs.NewRegistry()
	_, ts, c := newTestServer(t, fx, Config{Metrics: reg, Tracer: obs.NewTracer(reg, 16)})

	const k = 7
	for i := 0; i < k; i++ {
		if _, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`m3d_http_requests_total{code="200",route="/diagnose"} %d`, k)
	if !strings.Contains(string(body), want) {
		t.Fatalf("metrics missing %q in:\n%s", want, body)
	}
	for _, series := range []string{
		`m3d_http_request_seconds_count{route="/diagnose"} ` + fmt.Sprint(k),
		`m3d_queue_wait_seconds_count ` + fmt.Sprint(k),
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("metrics missing %q in:\n%s", series, body)
		}
	}
}

// TestTracesEndpoint checks that served requests leave trace records with
// the diagnosis pipeline's spans in the ring.
func TestTracesEndpoint(t *testing.T) {
	fx := getFixture(t)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, 8)
	_, ts, c := newTestServer(t, fx, Config{Metrics: reg, Tracer: tracer})
	if _, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, span := range []string{"POST /diagnose", "core.diagnose", "hgraph.backtrace", "diagnosis.score"} {
		if !strings.Contains(string(body), span) {
			t.Fatalf("traces missing span %q in:\n%s", span, body)
		}
	}
}

// TestAccessLogAndRequestID checks the per-request structured log line, the
// X-Request-ID response header, and its propagation into client errors.
func TestAccessLogAndRequestID(t *testing.T) {
	fx := getFixture(t)
	var mu sync.Mutex
	var lines []string
	cfg := Config{AccessLogf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}}
	_, ts, c := newTestServer(t, fx, cfg)

	if _, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(lines)
	var line string
	if n > 0 {
		line = lines[n-1]
	}
	mu.Unlock()
	if n != 1 {
		t.Fatalf("access log lines = %d, want 1", n)
	}
	for _, field := range []string{"request id=", "method=POST", "route=/diagnose", "status=200", "queue_wait_ms=", "handle_ms="} {
		if !strings.Contains(line, field) {
			t.Fatalf("access log line missing %q: %s", field, line)
		}
	}

	// Every response carries X-Request-ID, and a failing one surfaces it in
	// the client's StatusError so the log line can be found.
	resp, err := http.Post(ts.URL+"/diagnose", "text/plain", strings.NewReader("not a failure log"))
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get(RequestIDHeader)
	resp.Body.Close()
	if id == "" {
		t.Fatal("400 response has no X-Request-ID")
	}
	_, err = c.Diagnose(context.Background(), &failurelog.Log{}, DiagnoseOptions{})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("want StatusError, got %v", err)
	}
	if se.RequestID == "" {
		t.Fatalf("StatusError carries no request ID: %v", se)
	}
	if !strings.Contains(se.Error(), se.RequestID) {
		t.Fatalf("error text omits the request ID: %v", se)
	}
}

// TestClientBackoffCancel is the regression test for the retry sleep: with
// a 10s base backoff against an always-shedding server, cancelling the
// context must abort the wait immediately instead of sleeping it out.
func TestClientBackoffCancel(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"full"}`, http.StatusServiceUnavailable)
	}))
	defer stub.Close()
	c := &Client{Base: stub.URL, MaxAttempts: 5, BaseBackoff: 10 * time.Second, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Diagnose(ctx, &failurelog.Log{Design: "x"}, DiagnoseOptions{})
	if err == nil {
		t.Fatal("expected error after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v; the retry sleep ignored ctx", d)
	}
}

// TestClientConcurrentUse is the campaign-safety contract: one shared
// client must survive many goroutines diagnosing (and retrying, which
// exercises the shared jitter RNG) at once under -race, and Close must be
// callable concurrently with in-flight requests.
func TestClientConcurrentUse(t *testing.T) {
	fx := getFixture(t)
	_, _, c := newTestServer(t, fx, Config{})

	// A shedding stub exercises the retry/backoff path (the only shared
	// mutable state) from many goroutines at once.
	var flaky atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if flaky.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"design":"stub","candidates":[]}`)
	}))
	defer stub.Close()
	retrying := &Client{Base: stub.URL, Seed: 1, BaseBackoff: time.Millisecond}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, 2*goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			_, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{})
			errs[g] = err
		}(g)
		go func(g int) {
			defer wg.Done()
			_, err := retrying.Diagnose(context.Background(), &failurelog.Log{Design: "x"}, DiagnoseOptions{})
			errs[goroutines+g] = err
		}(g)
	}
	// Close racing in-flight calls must be safe (it only drops idle conns).
	c.Close()
	retrying.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent call %d: %v", i, err)
		}
	}
	c.Close() // idempotent, and the client stays usable afterwards
	if _, err := c.Diagnose(context.Background(), fx.light, DiagnoseOptions{}); err != nil {
		t.Fatalf("diagnose after Close: %v", err)
	}
}
