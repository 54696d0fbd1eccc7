package measure

import (
	"sort"
	"sync"
)

// MetricsSchemaVersion identifies the metric set the measurement tools
// emit. The result store folds it into every cell fingerprint (via the
// framework's cost-model hash), so changing what a tool reports — adding
// a metric, fixing a dead one — invalidates persisted cells instead of
// replaying records taken under the old schema.
const MetricsSchemaVersion = 2

// MetricVector is one repetition's metrics as a typed, ordered vector:
// metric names alongside their values, kept sorted by name. It replaces
// the map[string]float64 the per-run plumbing used to allocate for every
// repetition of every tool: vectors are pooled (Acquire/Release) and
// their backing slices are reused, so the steady-state measurement loop
// allocates nothing per repetition.
//
// The sorted-name invariant is what the run log format requires — record
// fields appear in sorted metric order — so rendering a vector is a plain
// in-order walk, no per-record sort.
//
// A MetricVector is not safe for concurrent use; each experiment cell
// owns its vectors, exactly like its log shard.
type MetricVector struct {
	names  []string
	values []float64
}

// metricVectorPool recycles vectors between repetitions.
var metricVectorPool = sync.Pool{
	New: func() any {
		return &MetricVector{
			names:  make([]string, 0, 16),
			values: make([]float64, 0, 16),
		}
	},
}

// AcquireMetricVector returns an empty vector from the pool. Pair it with
// Release on the hot path; vectors that escape into long-lived structures
// (a parsed Log) are simply never released.
func AcquireMetricVector() *MetricVector {
	return metricVectorPool.Get().(*MetricVector)
}

// Release resets the vector and returns it to the pool. The caller must
// not use it afterwards.
func (v *MetricVector) Release() {
	if v == nil {
		return
	}
	v.Reset()
	metricVectorPool.Put(v)
}

// NewMetricVector returns an empty, unpooled vector.
func NewMetricVector() *MetricVector {
	return &MetricVector{}
}

// NewMetricVectorCap returns an empty, unpooled vector with room for n
// metrics; n ≤ 0 gives the same empty vector as NewMetricVector. The log
// parser sizes each record's vector from its field count, so building it
// takes one allocation per backing slice.
func NewMetricVectorCap(n int) *MetricVector {
	if n <= 0 {
		return &MetricVector{}
	}
	return &MetricVector{names: make([]string, 0, n), values: make([]float64, 0, n)}
}

// FromMap builds a vector from a name→value map — a convenience for
// tests and custom hooks; the measurement hot path uses Acquire + Set.
func FromMap(m map[string]float64) *MetricVector {
	v := &MetricVector{
		names:  make([]string, 0, len(m)),
		values: make([]float64, 0, len(m)),
	}
	for name := range m {
		v.names = append(v.names, name)
	}
	sort.Strings(v.names)
	for _, name := range v.names {
		v.values = append(v.values, m[name])
	}
	return v
}

// Reset empties the vector, keeping its capacity.
func (v *MetricVector) Reset() {
	v.names = v.names[:0]
	v.values = v.values[:0]
}

// Len returns the number of metrics. It is nil-safe: a nil vector is
// empty (a Measurement with no metrics, e.g. in unit tests).
func (v *MetricVector) Len() int {
	if v == nil {
		return 0
	}
	return len(v.names)
}

// search returns the insertion index of name and whether it is present.
func (v *MetricVector) search(name string) (int, bool) {
	i := sort.SearchStrings(v.names, name)
	return i, i < len(v.names) && v.names[i] == name
}

// Set inserts or overwrites a metric, preserving sorted name order.
// Inserting into the middle shifts the tail — metric sets are small
// (≤ ~10 names), so the shift is cheaper than any map or re-sort, and it
// allocates nothing once the backing arrays have grown to capacity.
func (v *MetricVector) Set(name string, value float64) {
	// Names often arrive already sorted (a parsed log record lists them
	// so): appending after the last name needs no search.
	if n := len(v.names); n == 0 || v.names[n-1] < name {
		v.names = append(v.names, name)
		v.values = append(v.values, value)
		return
	}
	i, ok := v.search(name)
	if ok {
		v.values[i] = value
		return
	}
	v.names = append(v.names, "")
	v.values = append(v.values, 0)
	copy(v.names[i+1:], v.names[i:])
	copy(v.values[i+1:], v.values[i:])
	v.names[i] = name
	v.values[i] = value
}

// Get returns the named metric and whether it is present.
func (v *MetricVector) Get(name string) (float64, bool) {
	if v == nil {
		return 0, false
	}
	i, ok := v.search(name)
	if !ok {
		return 0, false
	}
	return v.values[i], true
}

// Value returns the named metric, or 0 when absent — the common read in
// collect stages, mirroring the old map indexing.
func (v *MetricVector) Value(name string) float64 {
	x, _ := v.Get(name)
	return x
}

// Has reports whether the named metric is present.
func (v *MetricVector) Has(name string) bool {
	_, ok := v.Get(name)
	return ok
}

// At returns the i-th metric in sorted name order.
func (v *MetricVector) At(i int) (string, float64) {
	return v.names[i], v.values[i]
}

// Names returns a copy of the metric names in sorted order.
func (v *MetricVector) Names() []string {
	if v == nil {
		return nil
	}
	return append([]string(nil), v.names...)
}

// Clone returns an independent, unpooled copy.
func (v *MetricVector) Clone() *MetricVector {
	if v == nil {
		return nil
	}
	return &MetricVector{
		names:  append([]string(nil), v.names...),
		values: append([]float64(nil), v.values...),
	}
}

// Equal reports whether two vectors hold the same metrics and values.
// NaN values compare unequal, like the floats they are.
func (v *MetricVector) Equal(other *MetricVector) bool {
	if v.Len() != other.Len() {
		return false
	}
	for i := range v.names {
		if v.names[i] != other.names[i] || v.values[i] != other.values[i] {
			return false
		}
	}
	return true
}
