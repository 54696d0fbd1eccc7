//go:build !race

// Allocation-regression tests live behind !race: the race runtime adds
// bookkeeping allocations that would make a zero pin flaky, and CI runs
// the suite both ways.
package runlog

import (
	"testing"

	"fex/internal/measure"
)

// TestValidateTextZeroAllocs pins replay validation as a pure syntax
// check: validating a RUN-only 1000-record shard — the shape of a stored
// cell — must not touch the heap.
func TestValidateTextZeroAllocs(t *testing.T) {
	shard := NewShard()
	v := measure.FromMap(map[string]float64{
		"cycles": 1234567.5, "instructions": 2.5e9, "ipc": 1.25, "wall_ns": 987654,
	})
	for rep := 0; rep < 1000; rep++ {
		shard.Writer().WriteMeasurement(Measurement{
			Suite: "splash", Benchmark: "fft", BuildType: "gcc_native",
			Threads: 1 << (rep % 4), Rep: rep, Values: v,
		})
	}
	text, err := shard.Text()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateText(text); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ValidateText(text); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ValidateText allocates %.1f times per 1000-record shard, want 0", allocs)
	}
}
