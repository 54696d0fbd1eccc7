package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// clusterHosts are the in-process worker hosts of the cluster-skew
// workload; the seed picks which one is slow.
var clusterHosts = []string{"w1", "w2"}

// slowHostLatency is the extra latency the slow host adds to every cell
// in cluster-skew.
const slowHostLatency = 40 * time.Millisecond

// spec is one benchmark workload: a fex run configuration over the splash
// suite under modeled time, so every CSV it produces is machine-independent
// and can be checked byte for byte against a serial reference.
type spec struct {
	name    string
	types   []string
	threads []int
	reps    int
	input   string
	jobs    int
	// state runs with a --state file; warm adds -resume and starts every
	// timed invocation from a copy of the state a cold reference run left.
	state, warm bool
	// cluster runs in-process on two hosts, one of them slow.
	cluster bool
	// records is the measurement count every invocation must report.
	records int
}

var allTypes = []string{"gcc_native", "clang_native", "gcc_asan", "clang_asan"}

// splashBenches is the splash suite; every workload runs all of it.
var splashBenches = []string{
	"barnes", "cholesky", "fft", "fmm", "lu", "ocean", "radiosity",
	"radix", "raytrace", "volrend", "water-nsquared", "water-spatial",
}

var specs = []spec{
	{
		name:  "modeled-cold",
		types: allTypes, threads: []int{1, 2, 4, 8}, reps: 500, input: "test",
		state: true, records: 96000,
	},
	{
		name:  "modeled-warm",
		types: allTypes, threads: []int{1, 2, 4, 8}, reps: 500, input: "test",
		state: true, warm: true, records: 96000,
	},
	{
		name:  "kernels-jobs",
		types: allTypes, threads: []int{1, 2, 4, 8}, reps: 3, input: "small",
		jobs: 2, records: 576,
	},
	{
		name:  "cluster-skew",
		types: allTypes, threads: []int{1, 2, 4, 8}, reps: 3, input: "small",
		cluster: true, records: 576,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// order is the seed-derived input of one run: the -t and -b orders and,
// for cluster-skew, the slow host.
type order struct {
	Types    []string `json:"types"`
	Benches  []string `json:"benches"`
	SlowHost string   `json:"slow_host,omitempty"`
}

// orderFor permutes the workload's build types and benchmarks with the
// seed; the same seed always yields the same order.
func orderFor(s spec, seed int64) order {
	rng := rand.New(rand.NewSource(seed))
	o := order{Types: permute(rng, s.types), Benches: permute(rng, splashBenches)}
	if s.cluster {
		o.SlowHost = clusterHosts[rng.Intn(len(clusterHosts))]
	}
	return o
}

func permute(rng *rand.Rand, xs []string) []string {
	out := make([]string, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// cliArgs renders the fex run command line. serial drops -jobs and
// -resume: it is the reference configuration the timed runs must match.
func (s spec) cliArgs(o order, serial bool, statePath, outDir string) []string {
	args := []string{"run", "-n", "splash", "-t"}
	args = append(args, o.Types...)
	args = append(args, "-b")
	args = append(args, o.Benches...)
	args = append(args, "-m")
	for _, m := range s.threads {
		args = append(args, strconv.Itoa(m))
	}
	args = append(args, "-r", strconv.Itoa(s.reps), "-i", s.input, "--modeled-time")
	if !serial && s.jobs > 1 {
		args = append(args, "-jobs", strconv.Itoa(s.jobs))
	}
	if statePath != "" {
		args = append(args, "--state", statePath)
	}
	if !serial && s.warm {
		args = append(args, "-resume")
	}
	return append(args, "-o", outDir)
}
