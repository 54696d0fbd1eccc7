package runlog

import (
	"bufio"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"fex/internal/measure"
)

func sampleHeader() Header {
	return Header{
		Experiment: "splash",
		BuildTypes: []string{"gcc_native", "clang_native"},
		Benchmarks: []string{"fft", "lu"},
		Threads:    []int{1, 2, 4},
		Reps:       3,
		Input:      "native",
		StartedAt:  time.Date(2017, 6, 25, 12, 0, 0, 0, time.UTC),
	}
}

func TestRoundtrip(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.WriteHeader(sampleHeader())
	w.WriteEnv([]string{"CC=gcc", "CFLAGS=-O2"})
	w.WriteMeasurement(Measurement{
		Suite: "splash", Benchmark: "fft", BuildType: "gcc_native",
		Threads: 2, Rep: 1,
		Values: measure.FromMap(map[string]float64{"cycles": 12345.5, "ipc": 1.25}),
	})
	w.WriteNote("dry run fft")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	lg, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	h := lg.Header
	if h.Experiment != "splash" || h.Reps != 3 || len(h.BuildTypes) != 2 || len(h.Threads) != 3 {
		t.Errorf("header %+v", h)
	}
	if !h.StartedAt.Equal(sampleHeader().StartedAt) {
		t.Errorf("start time %v", h.StartedAt)
	}
	if len(lg.Environment) != 2 || lg.Environment[0] != "CC=gcc" {
		t.Errorf("env %v", lg.Environment)
	}
	if len(lg.Measurements) != 1 {
		t.Fatalf("measurements %d", len(lg.Measurements))
	}
	m := lg.Measurements[0]
	if m.Benchmark != "fft" || m.Threads != 2 || m.Rep != 1 {
		t.Errorf("measurement %+v", m)
	}
	if m.Values.Value("cycles") != 12345.5 || m.Values.Value("ipc") != 1.25 {
		t.Errorf("values %v", m.Values.Names())
	}
	if len(lg.Notes) != 1 || lg.Notes[0].Text != "dry run fft" {
		t.Errorf("notes %v", lg.Notes)
	}
}

func TestParseEmptyLinesIgnored(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.WriteHeader(sampleHeader())
	_ = w.Flush()
	in := "\n" + sb.String() + "\n\n"
	if _, err := Parse(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
}

func TestParseUnknownKind(t *testing.T) {
	_, err := Parse(strings.NewReader("BOGUS|x=1\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("got %v", err)
	}
}

func TestParseMissingEquals(t *testing.T) {
	_, err := Parse(strings.NewReader("RUN|suite=s|bench\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("got %v", err)
	}
}

func TestParseMeasurementMissingBench(t *testing.T) {
	_, err := Parse(strings.NewReader("RUN|suite=s|threads=1|rep=0|cycles=5\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("got %v", err)
	}
}

func TestParseBadMetricValue(t *testing.T) {
	_, err := Parse(strings.NewReader("RUN|bench=b|type=t|threads=1|rep=0|cycles=abc\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("got %v", err)
	}
}

func TestParseBadThreads(t *testing.T) {
	_, err := Parse(strings.NewReader("RUN|bench=b|type=t|threads=xx|rep=0\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("got %v", err)
	}
}

func TestParseHeaderMissingName(t *testing.T) {
	_, err := Parse(strings.NewReader("HDR|types=a\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("got %v", err)
	}
}

func TestParseHeaderBadTime(t *testing.T) {
	_, err := Parse(strings.NewReader("HDR|experiment=x|started=yesterday\n"))
	if !errors.Is(err, ErrBadRecord) {
		t.Errorf("got %v", err)
	}
}

func TestNoteWithPipes(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.WriteNote("a|b|c")
	_ = w.Flush()
	lg, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if lg.Notes[0].Text != "a|b|c" {
		t.Errorf("note %q", lg.Notes[0].Text)
	}
}

func TestNoteNewlinesFlattened(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.WriteNote("line1\nline2")
	_ = w.Flush()
	lg, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(lg.Notes[0].Text, "\n") {
		t.Error("newline survived into note record")
	}
}

func TestMeasurementValueOrderingStable(t *testing.T) {
	m := Measurement{
		Suite: "s", Benchmark: "b", BuildType: "t", Threads: 1,
		Values: measure.FromMap(map[string]float64{"z": 1, "a": 2, "m": 3}),
	}
	render := func() string {
		var sb strings.Builder
		w := NewWriter(&sb)
		w.WriteMeasurement(m)
		_ = w.Flush()
		return sb.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if render() != first {
			t.Fatal("measurement rendering is not deterministic")
		}
	}
	if !strings.Contains(first, "a=2|m=3|z=1") {
		t.Errorf("values not sorted: %q", first)
	}
}

func TestEmptyHeaderLists(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.WriteHeader(Header{Experiment: "e", StartedAt: time.Unix(0, 0).UTC()})
	_ = w.Flush()
	lg, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Header.BuildTypes) != 0 || len(lg.Header.Threads) != 0 {
		t.Errorf("expected empty lists, got %+v", lg.Header)
	}
}

// TestShardMerge checks the scheduler's determinism primitive: records
// buffered in shards and appended in canonical order produce the same
// bytes as writing them directly to one Writer in that order.
func TestShardMerge(t *testing.T) {
	measurement := func(bench string, rep int) Measurement {
		return Measurement{
			Suite: "splash", Benchmark: bench, BuildType: "gcc_native",
			Threads: 1, Rep: rep,
			Values: measure.FromMap(map[string]float64{"cycles": float64(rep * 100)}),
		}
	}

	var direct strings.Builder
	dw := NewWriter(&direct)
	dw.WriteHeader(sampleHeader())
	for _, bench := range []string{"fft", "lu", "radix"} {
		dw.WriteNote("built " + bench)
		for rep := 0; rep < 2; rep++ {
			dw.WriteMeasurement(measurement(bench, rep))
		}
	}
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}

	var merged strings.Builder
	mw := NewWriter(&merged)
	mw.WriteHeader(sampleHeader())
	var shards []*Shard
	for _, bench := range []string{"fft", "lu", "radix"} {
		s := NewShard()
		s.Writer().WriteNote("built " + bench)
		for rep := 0; rep < 2; rep++ {
			s.Writer().WriteMeasurement(measurement(bench, rep))
		}
		shards = append(shards, s)
	}
	// A nil shard models a cell that never ran; Append must skip it.
	shards = append(shards, nil)
	if err := mw.Append(shards...); err != nil {
		t.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}

	if direct.String() != merged.String() {
		t.Errorf("merged shards differ from direct writes:\n--- direct ---\n%s\n--- merged ---\n%s",
			direct.String(), merged.String())
	}
}

// TestWriterConcurrentUse hammers one Writer from several goroutines; run
// under -race this proves record writes are atomic, and the parse below
// proves no line tearing occurred.
func TestWriterConcurrentUse(t *testing.T) {
	var sb strings.Builder
	lw := NewWriter(&sb)
	var wg sync.WaitGroup
	const writers, records = 8, 50
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < records; i++ {
				lw.WriteMeasurement(Measurement{
					Suite: "splash", Benchmark: "fft", BuildType: "gcc_native",
					Threads: g + 1, Rep: i,
					Values: measure.FromMap(map[string]float64{"cycles": float64(i)}),
				})
				lw.WriteNote("tick")
			}
		}()
	}
	wg.Wait()
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	lg, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("concurrently written log does not parse: %v", err)
	}
	if len(lg.Measurements) != writers*records || len(lg.Notes) != writers*records {
		t.Errorf("got %d measurements / %d notes, want %d each",
			len(lg.Measurements), len(lg.Notes), writers*records)
	}
}

func TestShardTextRoundTrip(t *testing.T) {
	s := NewShard()
	s.Writer().WriteNote("built splash/fft [gcc_native]")
	s.Writer().WriteMeasurement(Measurement{
		Suite: "splash", Benchmark: "fft", BuildType: "gcc_native",
		Threads: 2, Rep: 1, Values: measure.FromMap(map[string]float64{"cycles": 42}),
	})
	text, err := s.Text()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "NOTE|built splash/fft") || !strings.Contains(text, "cycles=42") {
		t.Fatalf("shard text missing records:\n%s", text)
	}

	// A restored shard must merge byte-identically to the original.
	var restored strings.Builder
	dw := NewWriter(&restored)
	if err := dw.Append(RestoreShard(text)); err != nil {
		t.Fatal(err)
	}
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	if restored.String() != text {
		t.Errorf("restored shard merge differs:\n%q\nvs\n%q", restored.String(), text)
	}
}

func TestShardTextEmpty(t *testing.T) {
	text, err := NewShard().Text()
	if err != nil {
		t.Fatal(err)
	}
	if text != "" {
		t.Errorf("empty shard produced %q", text)
	}
}

func TestValidateText(t *testing.T) {
	shard := NewShard()
	shard.Writer().WriteMeasurement(Measurement{
		Suite: "splash", Benchmark: "fft", BuildType: "gcc_native",
		Threads: 1, Rep: 0, Values: measure.FromMap(map[string]float64{"cycles": 42}),
	})
	shard.Writer().WriteNote("built splash/fft [gcc_native]")
	text, err := shard.Text()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateText(text); err != nil {
		t.Errorf("valid shard text rejected: %v", err)
	}
	if err := ValidateText(""); err != nil {
		t.Errorf("empty shard text rejected: %v", err)
	}
	for _, bad := range []string{
		"BOGUS|kind\n",
		"RUN|suite=splash\n",           // measurement without bench/type
		"RUN|bench=fft|type=t|rep=x\n", // bad rep
		"HDR|experiment=\n",            // header without name
		text + "RUN|nonsense",          // valid prefix, corrupt tail
	} {
		if err := ValidateText(bad); err == nil {
			t.Errorf("ValidateText(%q) accepted corrupt text", bad)
		}
	}
}

// TestValidateTextLineCap pins the validator to bufio.Scanner's ErrTooLong
// boundary: lines one byte under, at and over the Parse buffer cap, with
// and without a trailing newline, after a valid first line.
func TestValidateTextLineCap(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		for _, nl := range []string{"", "\n"} {
			line := "NOTE|" + strings.Repeat("x", n-len("NOTE|"))
			text := "NOTE|first\n" + line + nl
			verr := ValidateText(text)
			_, perr := Parse(strings.NewReader(text))
			if (verr == nil) != (perr == nil) || (verr != nil && verr.Error() != perr.Error()) {
				t.Fatalf("len %d, newline %q: validate %v, parse %v", n, nl, verr, perr)
			}
			if tooLong := n >= maxLine; errors.Is(verr, bufio.ErrTooLong) != tooLong {
				t.Errorf("len %d, newline %q: ValidateText = %v, want ErrTooLong %v", n, nl, verr, tooLong)
			}
		}
	}
}
