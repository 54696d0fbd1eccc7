// Command fexbench is fex's own benchmark. It runs one workload as a
// user runs it and prints its end-to-end metrics, or, with -trace 1,
// runs it in-process with timed calls into each layer and prints the
// per-layer metrics. Every invocation's CSV is checked byte for byte
// against a serial reference run. See README.md.
//
//	fexbench -fex <fex binary> -work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	fexbench compare [-bench BENCHMARK.json] <results A> <results B>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runLimit bounds a whole run, set-up included.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		code, err := compareMain(os.Args[2:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "fexbench compare:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fexbench:", err)
		os.Exit(1)
	}
}

func benchMain(argv []string) error {
	fl := flag.NewFlagSet("fexbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed: permutes the -t and -b order and picks the slow host")
	seconds := fl.Float64("seconds", 10, "measuring time of the run")
	traceFlag := fl.Int("trace", 0, "1 runs traced in-process invocations and reports per-layer metrics")
	fexBin := fl.String("fex", "", "fex binary")
	work := fl.String("work", ".bench_build/fexbench", "scratch and results directory")
	out := fl.String("out", "", "result file (default <work>/results/<workload>-seed<n>-trace<t>.json)")
	if err := fl.Parse(argv); err != nil {
		return err
	}
	s, err := lookupSpec(*name)
	if err != nil {
		return err
	}
	if *fexBin == "" {
		return fmt.Errorf("-fex is required")
	}
	if _, err := os.Stat(*fexBin); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit+5*time.Second)
	defer cancel()
	hardStop := time.Now().Add(runLimit)

	o := orderFor(s, *seed)
	b := &bench{
		spec: s, order: o, seed: *seed, fexBin: *fexBin, trace: *traceFlag == 1,
		dir: filepath.Join(*work, fmt.Sprintf("run-%s-%d-%d", s.name, *seed, os.Getpid())),
	}
	b.res = &result{
		Workload: s.name, Seed: *seed, Trace: b.trace, Seconds: *seconds,
		Machine: machine(*fexBin),
		Order:   o,
	}
	defer os.RemoveAll(b.dir)
	fmt.Fprintf(os.Stderr, "fexbench: %s seed %d trace %v: setting up\n", s.name, *seed, b.trace)
	if err := b.setup(ctx); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fexbench: setup %.2fs; measuring for %.0fs\n", median(b.res.SetupSamples), *seconds)
	b.measure(ctx, *seconds, hardStop)
	b.metrics()

	path := *out
	if path == "" {
		path = filepath.Join(*work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", s.name, *seed, *traceFlag))
	}
	if err := b.res.write(path); err != nil {
		return err
	}
	for _, smp := range b.res.Samples {
		if smp.Error != "" {
			fmt.Fprintln(os.Stderr, "fexbench: invocation failed:", smp.Error)
		}
	}
	for _, t := range b.res.Traced {
		if t.Error != "" {
			fmt.Fprintln(os.Stderr, "fexbench: traced invocation failed:", t.Error)
		}
	}
	fmt.Fprintf(os.Stderr, "fexbench: %d invocations, %d failed; results in %s\n", b.res.Attempted, b.res.Failed, path)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.res.Correct, b.res.Attempted, b.res.Failed, b.res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
