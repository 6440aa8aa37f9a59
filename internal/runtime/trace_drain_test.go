package runtime

import (
	"context"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/obs"
)

// TestRunTracedStampsRequestID pins the request-ID satellite at the
// manager layer: a distributed request ID becomes the session's trace ID
// (so engine spans correlate across the router hop), and a plain Run
// falls back to the session's own ID.
func TestRunTracedStampsRequestID(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.ResetSpans()

	mgr := NewManager(Config{})
	s, err := mgr.RunTraced(context.Background(), interp.NewPlan(mustProject(t, quickSrc)), Limits{}, "req-42")
	if err != nil {
		t.Fatal(err)
	}
	if s.TraceID() != "req-42" {
		t.Fatalf("TraceID = %q, want the request ID", s.TraceID())
	}
	spans := obs.SpansFor("req-42")
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the request ID")
	}
	hasSession := false
	for _, sp := range spans {
		if sp.Kind == "session" {
			hasSession = true
		}
	}
	if !hasSession {
		t.Errorf("no session span under the request ID")
	}

	plain, err := mgr.Run(context.Background(), mustProject(t, quickSrc), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceID() != plain.ID() {
		t.Errorf("untraced session's TraceID = %q, want its own ID %q", plain.TraceID(), plain.ID())
	}
}

// TestDrainWaitsForIdle pins the SIGTERM drain: Drain returns true once
// nothing is running or queued, and false when the timeout lands while a
// session still runs.
func TestDrainWaitsForIdle(t *testing.T) {
	mgr := NewManager(Config{})
	if !mgr.Drain(time.Second) {
		t.Fatal("Drain on an idle manager reported busy")
	}

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		// A forever script bounded by its own deadline: busy for ~250ms.
		mgr.Run(context.Background(), mustProject(t, foreverSrc), Limits{Timeout: 250 * time.Millisecond}) //nolint:errcheck
	}()
	<-started
	deadline := time.Now().Add(time.Second)
	for mgr.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if mgr.Drain(30 * time.Millisecond) {
		t.Error("Drain reported idle while a session was running")
	}
	if !mgr.Drain(5 * time.Second) {
		t.Error("Drain never saw the manager go idle")
	}
	<-done
}
