package main

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"looppoint/internal/pool"
)

// TestQuarantinePanic: a panic in one checkpoint's stage is that item's
// *pool.PanicError, never the sweep's crash, and every sibling still runs
// and keeps its result. The quarantined file's report is one line with
// the panic value; its stack goes to stderr.
func TestQuarantinePanic(t *testing.T) {
	const n, bad = 6, 2
	var ran atomic.Int64
	out, errs := quarantine(2, n, func(i int) (int, error) {
		ran.Add(1)
		if i == bad {
			panic("bad checkpoint")
		}
		return i * 10, nil
	})
	if got := ran.Load(); got != n {
		t.Fatalf("%d of %d items ran", got, n)
	}
	var pe *pool.PanicError
	if !errors.As(errs[bad], &pe) || pe.Value != "bad checkpoint" {
		t.Fatalf("errs[%d] = %v, want *pool.PanicError(bad checkpoint)", bad, errs[bad])
	}
	for i := range n {
		if i != bad && (errs[i] != nil || out[i] != i*10) {
			t.Errorf("item %d: got (%d, %v), want (%d, nil)", i, out[i], errs[i], i*10)
		}
	}

	var stdout, stderr strings.Builder
	printQuarantined(&stdout, &stderr, "r2.pinball", errs[bad])
	if got, want := stdout.String(), fmt.Sprintf("%-32s QUARANTINED: panic: bad checkpoint\n", "r2.pinball"); got != want {
		t.Errorf("report line = %q, want %q", got, want)
	}
	if !strings.Contains(stderr.String(), "r2.pinball panicked: bad checkpoint") ||
		!strings.Contains(stderr.String(), "goroutine ") {
		t.Errorf("stderr does not carry the panic's stack:\n%s", stderr.String())
	}
}
