package wire

import (
	"strings"
	"testing"
	"time"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

// reqID builds the series id of a per-op request counter as the daemon
// registers it: labels sorted by key, so listen before op.
func reqID(listen, op string) string {
	return `spongewire_requests_total{listen="` + listen + `",op="` + op + `"}`
}

func TestMetricsOverV2(t *testing.T) {
	srv, c := startServer(t, 4096, 4)
	owner := sponge.TaskID{Node: 1, PID: 7}
	h, err := c.AllocWrite(owner, []byte("observed"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(h); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(text)
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	addr := srv.Addr()
	for op, want := range map[string]int64{
		"hello":       1,
		"alloc_write": 1,
		"read":        1,
		"free":        1,
		"metrics":     1,
	} {
		if got := samples[reqID(addr, op)]; got != want {
			t.Errorf("%s = %d, want %d\n%s", reqID(addr, op), got, want, text)
		}
	}
	if got := samples[`spongewire_pool_free_chunks{listen="`+addr+`"}`]; got != 4 {
		t.Errorf("pool_free_chunks = %d, want 4", got)
	}
	if got := samples[`spongewire_connections_total{listen="`+addr+`",tier="tcp"}`]; got != 1 {
		t.Errorf("connections_total{tier=tcp} = %d, want 1", got)
	}
}

func TestMetricsSharedRegistryAcrossDaemons(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Metrics: reg}
	poolA := sponge.NewPool(1024, 3)
	poolB := sponge.NewPool(1024, 5)
	srvA, err := ServeOptions(poolA, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := ServeOptions(poolB, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if srvA.Metrics() != reg || srvB.Metrics() != reg {
		t.Fatal("servers did not adopt the shared registry")
	}
	c, err := Dial(srvA.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	// One scrape of A must expose both daemons' series, distinguished by
	// the listen label.
	if got := samples[`spongewire_pool_chunks{listen="`+srvA.Addr()+`"}`]; got != 3 {
		t.Errorf("A pool_chunks = %d, want 3", got)
	}
	if got := samples[`spongewire_pool_chunks{listen="`+srvB.Addr()+`"}`]; got != 5 {
		t.Errorf("B pool_chunks = %d, want 5", got)
	}
}

func TestTrackerServerAnswersMetrics(t *testing.T) {
	pool := sponge.NewPool(1024, 4)
	srv, err := Serve(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTracker([]string{srv.Addr()}, time.Hour)
	defer tr.Close()
	ts, err := tr.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, reqID(ts.Addr(), "metrics")+" 1") {
		t.Fatalf("tracker scrape missing its own metrics counter:\n%s", text)
	}
}
