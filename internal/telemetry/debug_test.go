package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tameir/internal/telemetry/trace"
)

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", Deterministic, "").Add(3)
	rec := trace.NewRecorder(0)
	rec.Instant(0, "probe")
	srv := httptest.NewServer(DebugMux(r, rec))
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if text := get("/metrics"); !strings.Contains(text, "hits_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", text)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if s, ok := snap.Get("hits_total"); !ok || s.Value != 3 {
		t.Fatalf("/metrics.json wrong sample: %+v", s)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}
	evs, _, err := trace.ParseChromeJSON(strings.NewReader(get("/debug/trace")))
	if err != nil {
		t.Fatalf("/debug/trace not chrome json: %v", err)
	}
	if len(evs) != 1 || evs[0].Name != "probe" {
		t.Fatalf("/debug/trace wrong events: %+v", evs)
	}

	// Without a recorder the endpoint must 404, not serve an empty trace.
	bare := httptest.NewServer(DebugMux(r, nil))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace without recorder: status %d, want 404", resp.StatusCode)
	}
}

func TestStartDebugServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", Deterministic, "").Inc()
	ds, err := StartDebugServer("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "up_total 1") {
		t.Fatalf("live /metrics wrong:\n%s", b)
	}
	if err := ds.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("close: %v", err)
	}
}
