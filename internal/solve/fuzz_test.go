package solve

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"lsopc/internal/obs"
)

// FuzzReadCheckpoint feeds arbitrary bytes through ReadCheckpoint and,
// whenever they decode, through Driver.Restore and on through Run: a
// malformed checkpoint must come back as an error, never as a panic,
// now or in the steps after a restore it passed. The seed is a real
// mid-run checkpoint of a watchdog-guarded run, so mutations start
// from a well-formed file that exercises every field.
func FuzzReadCheckpoint(f *testing.F) {
	pol := obs.DefaultHealthPolicy()
	cfg := quadConfig(10)
	cfg.Health = &pol
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newQuadStepper(1)
	s.cancelAt, s.cancel = 4, cancel
	_, err := NewDriver(s, cfg).Run(ctx)
	var cerr *Cancelled
	if !errors.As(err, &cerr) {
		f.Fatalf("seed run returned %v, want *Cancelled", err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cerr.Checkpoint); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		d := NewDriver(newQuadStepper(1), cfg)
		if d.Restore(cp) == nil {
			_, _ = d.Run(context.Background())
		}
	})
}
