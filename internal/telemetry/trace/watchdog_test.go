package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWatchdogNilAndDisabled(t *testing.T) {
	var w *Watchdog
	w.Beat(0)
	w.Done(0)
	w.Stop()
	if w.Stalls() != 0 {
		t.Fatal("nil watchdog reported stalls")
	}
	if StartWatchdog(WatchdogConfig{Tracks: 4}) != nil {
		t.Fatal("zero deadline must return the nil watchdog")
	}
	if StartWatchdog(WatchdogConfig{Deadline: time.Second}) != nil {
		t.Fatal("zero tracks must return the nil watchdog")
	}
}

func TestWatchdogFiresOnStall(t *testing.T) {
	rec := NewRecorder(0)
	var stacks bytes.Buffer
	snap := filepath.Join(t.TempDir(), "stall.json")
	var stalledTrack atomic.Int64
	stalledTrack.Store(-1)
	w := StartWatchdog(WatchdogConfig{
		Tracks:       2,
		Deadline:     30 * time.Millisecond,
		Interval:     10 * time.Millisecond,
		Rec:          rec,
		StacksTo:     &stacks,
		SnapshotPath: snap,
		OnStall:      func(track int, _ time.Duration) { stalledTrack.Store(int64(track)) },
	})
	defer w.Stop()

	w.Beat(0) // arm track 0 and let it go silent
	// Track 1 keeps beating: it must not fire.
	deadline := time.Now().Add(2 * time.Second)
	for w.Stalls() == 0 && time.Now().Before(deadline) {
		w.Beat(1)
		time.Sleep(5 * time.Millisecond)
	}
	w.Done(1) // a slow read below must not let track 1 stall too
	if w.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", w.Stalls())
	}
	if got := stalledTrack.Load(); got != 0 {
		t.Fatalf("stalled track = %d, want 0", got)
	}
	if !strings.Contains(stacks.String(), "goroutine") {
		t.Fatal("stack dump missing from stall output")
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("emergency snapshot not written: %v", err)
	}
	evs, _, err := ParseChromeJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot is not valid chrome json: %v", err)
	}
	found := false
	for _, ev := range evs {
		if ev.Name == "watchdog_stall" && ev.Phase == PhaseInstant && ev.Track == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("snapshot lacks the watchdog_stall instant")
	}

	// A beat closes the episode; silence after that re-fires.
	w.Beat(0)
	time.Sleep(5 * time.Millisecond)
	deadline = time.Now().Add(2 * time.Second)
	for w.Stalls() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if w.Stalls() < 2 {
		t.Fatalf("stalls = %d, want >= 2 after re-arm", w.Stalls())
	}
}

func TestWatchdogDoneDisarms(t *testing.T) {
	w := StartWatchdog(WatchdogConfig{
		Tracks:   1,
		Deadline: 20 * time.Millisecond,
		Interval: 10 * time.Millisecond,
		StacksTo: &bytes.Buffer{},
	})
	defer w.Stop()
	w.Beat(0)
	w.Done(0)
	time.Sleep(100 * time.Millisecond)
	if w.Stalls() != 0 {
		t.Fatalf("disarmed track fired: stalls = %d", w.Stalls())
	}
}

func TestWatchdogBeatAgeHook(t *testing.T) {
	var calls atomic.Uint64
	w := StartWatchdog(WatchdogConfig{
		Tracks:    1,
		Deadline:  10 * time.Second,
		Interval:  10 * time.Millisecond,
		StacksTo:  &bytes.Buffer{},
		OnBeatAge: func(int, time.Duration) { calls.Add(1) },
	})
	defer w.Stop()
	w.Beat(0)
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if calls.Load() == 0 {
		t.Fatal("OnBeatAge never called for an armed track")
	}
}
