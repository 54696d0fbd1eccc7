package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedSample is one traced invocation's per-layer numbers. Its spans
// go to the run's spans file, not the result file.
type tracedSample struct {
	Layers map[string]float64 `json:"layers"`
	Error  string             `json:"error,omitempty"`
	Spans  []span             `json:"-"`
}

// result is everything one run measured: the machine, every raw sample,
// and the reported medians.
type result struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Seconds      float64            `json:"seconds"`
	Machine      fingerprint        `json:"machine"`
	Order        order              `json:"order"`
	Reference    string             `json:"reference_csv_sha256"`
	SetupSamples []float64          `json:"setup_samples"`
	Samples      []sample           `json:"samples"`
	Traced       []tracedSample     `json:"traced,omitempty"`
	Summary      map[string]summary `json:"summary"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Metrics      map[string]value   `json:"metrics"`
}

// fingerprint identifies the machine and code a result was measured on.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	FexSHA256  string `json:"fex_sha256"`
}

func machine(fexBin string) fingerprint {
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// A checkout without git metadata keeps "unknown"; the binary digest
	// still identifies the code.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile(fexBin); err == nil {
		fp.FexSHA256 = digest(b)
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// write stores the result as JSON and the traced spans as JSON lines
// beside it.
func (r *result) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	f, err := os.Create(strings.TrimSuffix(path, ".json") + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range r.Traced {
		for _, s := range t.Spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
