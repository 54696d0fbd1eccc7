// Package runlog defines FEX's on-disk experiment log format and its parser.
//
// The run step of every experiment appends structured records to a log; the
// collect step parses the log back into measurement records which are then
// aggregated into a CSV table (§II-A of the paper: "The collect step parses
// the log, extracts the measurement results, processes them in a
// user-specified way, and stores into a CSV table"). The paper also notes
// that FEX "outputs various environment details, so that the complete
// experimental setup is stored in the log file" — Header records carry that
// setup.
//
// The format is line-oriented: one record per line, fields separated by
// "|", "key=value" measurement fields. It is deliberately greppable, like
// the raw benchmark logs FEX's Python collect scripts consume.
package runlog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"fex/internal/measure"
)

// Record kinds.
const (
	kindHeader  = "HDR"
	kindEnv     = "ENV"
	kindMeasure = "RUN"
	kindNote    = "NOTE"
)

// ErrBadRecord reports a malformed log line.
var ErrBadRecord = errors.New("runlog: malformed record")

// Header describes one experiment execution; it is written once at the top
// of a log.
type Header struct {
	Experiment string
	BuildTypes []string
	Benchmarks []string
	Threads    []int
	Reps       int
	Input      string
	StartedAt  time.Time
}

// Measurement is one benchmark execution's results.
type Measurement struct {
	// Benchmark is the benchmark name (e.g. "fft").
	Benchmark string
	// Suite is the suite the benchmark belongs to (e.g. "splash").
	Suite string
	// BuildType identifies the build configuration (e.g. "gcc_native").
	BuildType string
	// Threads is the thread count of this run.
	Threads int
	// Rep is the repetition index (0-based).
	Rep int
	// Values carries the measured metrics (cycles, instructions, wall_ns,
	// …) as a typed vector, sorted by metric name — the order records
	// render in. Writing does not retain the vector, so hot-path callers
	// release pooled vectors right after WriteMeasurement.
	Values *measure.MetricVector
}

// Note is free-form commentary (dry runs, warnings).
type Note struct {
	Text string
}

// Writer serializes records to an io.Writer. It is safe for concurrent
// use: each record is written atomically under an internal lock, so
// parallel experiment cells can share one Writer without tearing lines.
// Record *ordering* under concurrency is whatever the scheduler produces;
// callers that need deterministic logs buffer records per cell in a Shard
// and merge the shards in canonical order via Append.
//
// Records are rendered into a scratch buffer reused across writes
// (strconv.Append* onto []byte, no fmt, no string joining), so the
// measurement hot loop — one WriteMeasurement per repetition — allocates
// nothing once the buffer has grown to record size.
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte // scratch record buffer, reused under mu
	err error
}

// NewWriter returns a log writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// flushLine writes the scratch buffer (one rendered record, built by the
// caller under lw.mu) terminated with a newline.
func (lw *Writer) flushLine(b []byte) {
	b = append(b, '\n')
	lw.buf = b[:0]
	if lw.err != nil {
		return
	}
	_, lw.err = lw.w.Write(b)
}

// WriteHeader writes the experiment header record.
func (lw *Writer) WriteHeader(h Header) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	b := lw.buf[:0]
	b = append(b, kindHeader...)
	b = append(b, "|experiment="...)
	b = append(b, h.Experiment...)
	b = append(b, "|types="...)
	for i, t := range h.BuildTypes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, t...)
	}
	b = append(b, "|benchmarks="...)
	for i, bench := range h.Benchmarks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, bench...)
	}
	b = append(b, "|threads="...)
	for i, t := range h.Threads {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	b = append(b, "|reps="...)
	b = strconv.AppendInt(b, int64(h.Reps), 10)
	b = append(b, "|input="...)
	b = append(b, h.Input...)
	b = append(b, "|started="...)
	b = h.StartedAt.UTC().AppendFormat(b, time.RFC3339)
	lw.flushLine(b)
}

// WriteEnv records the resolved environment (for reproducibility).
func (lw *Writer) WriteEnv(vars []string) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	for _, v := range vars {
		b := lw.buf[:0]
		b = append(b, kindEnv...)
		b = append(b, '|')
		b = append(b, v...)
		lw.flushLine(b)
	}
}

// WriteMeasurement appends one measurement record. Metrics render in
// sorted name order — the vector's iteration order.
func (lw *Writer) WriteMeasurement(m Measurement) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	b := lw.buf[:0]
	b = append(b, kindMeasure...)
	b = append(b, "|suite="...)
	b = append(b, m.Suite...)
	b = append(b, "|bench="...)
	b = append(b, m.Benchmark...)
	b = append(b, "|type="...)
	b = append(b, m.BuildType...)
	b = append(b, "|threads="...)
	b = strconv.AppendInt(b, int64(m.Threads), 10)
	b = append(b, "|rep="...)
	b = strconv.AppendInt(b, int64(m.Rep), 10)
	for i := 0; i < m.Values.Len(); i++ {
		name, v := m.Values.At(i)
		b = append(b, '|')
		b = append(b, name...)
		b = append(b, '=')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	lw.flushLine(b)
}

// WriteNote appends a free-form note.
func (lw *Writer) WriteNote(text string) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	b := lw.buf[:0]
	b = append(b, kindNote...)
	b = append(b, '|')
	start := len(b)
	b = append(b, text...)
	for i := start; i < len(b); i++ {
		if b[i] == '\n' {
			b[i] = ' '
		}
	}
	lw.flushLine(b)
}

// Flush flushes buffered records and returns the first error encountered.
func (lw *Writer) Flush() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return lw.err
	}
	return lw.w.Flush()
}

// Shard is an in-memory log fragment: a private Writer one experiment
// cell appends to while running concurrently with other cells. After the
// run, shards are merged into the main log in canonical loop order with
// Writer.Append, which makes a parallel run's log byte-identical to the
// serial run's.
type Shard struct {
	buf strings.Builder
	w   *Writer
}

// NewShard returns an empty log fragment.
func NewShard() *Shard {
	s := &Shard{}
	s.w = NewWriter(&s.buf)
	return s
}

// Writer returns the shard's record writer.
func (s *Shard) Writer() *Writer { return s.w }

// Text flushes the shard and returns its accumulated records as log text —
// what a cluster worker ships back to the coordinator (the "fetch the
// logs" step of a remote cell).
func (s *Shard) Text() (string, error) {
	if err := s.w.Flush(); err != nil {
		return "", err
	}
	return s.buf.String(), nil
}

// RestoreShard reconstructs a shard from log text previously produced by
// Text. The coordinator uses it to re-materialize a remote cell's shard so
// fetched cluster logs merge through the same Append path as local ones.
func RestoreShard(text string) *Shard {
	s := NewShard()
	s.buf.WriteString(text)
	return s
}

// Append flushes each shard and appends its records to lw in argument
// order. Nil shards (cells that never ran, e.g. after an earlier cell
// failed) are skipped. It returns the first shard or writer error.
func (lw *Writer) Append(shards ...*Shard) error {
	for _, s := range shards {
		if s == nil {
			continue
		}
		if err := s.w.Flush(); err != nil {
			return err
		}
		lw.mu.Lock()
		if lw.err == nil {
			_, lw.err = lw.w.WriteString(s.buf.String())
		}
		err := lw.err
		lw.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// maxLine is the longest record line Parse accepts (the bufio.Scanner
// buffer cap): a line of maxLine bytes or more, '\r's included and the
// '\n' excluded, fails with bufio.ErrTooLong.
const maxLine = 4 * 1024 * 1024

// ValidateText checks that text parses as well-formed log records — the
// guard the result store applies before replaying a persisted cell shard
// into a live log, so a corrupted store entry is re-measured instead of
// poisoning the resumed log. It accepts and rejects exactly what Parse
// does, with the same error text, but builds no records: on a RUN-only
// shard it allocates nothing.
func ValidateText(text string) error {
	for lineNo := 1; text != ""; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if len(line) >= maxLine {
			return fmt.Errorf("runlog: scan: %w", bufio.ErrTooLong)
		}
		if err := parseLine(line, lineNo, nil); err != nil {
			return err
		}
	}
	return nil
}

// Log is a fully parsed experiment log.
type Log struct {
	Header       Header
	Environment  []string
	Measurements []Measurement
	Notes        []Note
}

// Parse reads a complete log from r.
func Parse(r io.Reader) (*Log, error) {
	out := &Log{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if err := parseLine(sc.Text(), lineNo, out); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runlog: scan: %w", err)
	}
	return out, nil
}

// parseLine parses one log line (its '\n' already cut off) into out, or
// only checks it when out is nil. Fields are walked with strings.Cut: a
// record with no '|' after its kind has no fields, and "RUN|" has one
// empty field.
func parseLine(line string, lineNo int, out *Log) error {
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return nil
	}
	kind, fields, more := strings.Cut(line, "|")
	switch kind {
	case kindHeader:
		var h *Header
		if out != nil {
			h = &out.Header
			*h = Header{}
		}
		if err := parseHeader(fields, more, h); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	case kindEnv:
		if !more {
			return fmt.Errorf("line %d: %w: ENV without payload", lineNo, ErrBadRecord)
		}
		if out != nil {
			out.Environment = append(out.Environment, fields)
		}
	case kindMeasure:
		var m *Measurement
		if out != nil {
			// Records the Writer renders carry five fixed fields; the
			// rest are metrics.
			m = &Measurement{Values: measure.NewMetricVectorCap(strings.Count(fields, "|") + 1 - 5)}
		}
		if err := parseMeasurement(fields, more, m); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if out != nil {
			out.Measurements = append(out.Measurements, *m)
		}
	case kindNote:
		if out != nil {
			out.Notes = append(out.Notes, Note{Text: fields})
		}
	default:
		return fmt.Errorf("line %d: %w: unknown kind %q", lineNo, ErrBadRecord, kind)
	}
	return nil
}

func kv(field string) (string, string, error) {
	k, v, ok := strings.Cut(field, "=")
	if !ok {
		return "", "", fmt.Errorf("%w: field %q has no '='", ErrBadRecord, field)
	}
	return k, v, nil
}

// parseHeader parses a header's fields into h, or only checks them when h
// is nil. more reports whether the record has any fields.
func parseHeader(fields string, more bool, h *Header) error {
	named := false
	for more {
		var f string
		f, fields, more = strings.Cut(fields, "|")
		k, v, err := kv(f)
		if err != nil {
			return err
		}
		switch k {
		case "experiment":
			named = v != ""
			if h != nil {
				h.Experiment = v
			}
		case "types":
			if h != nil && v != "" {
				h.BuildTypes = strings.Split(v, ",")
			}
		case "benchmarks":
			if h != nil && v != "" {
				h.Benchmarks = strings.Split(v, ",")
			}
		case "threads":
			for next := v != ""; next; {
				var s string
				s, v, next = strings.Cut(v, ",")
				n, err := strconv.Atoi(s)
				if err != nil {
					return fmt.Errorf("%w: bad thread count %q", ErrBadRecord, s)
				}
				if h != nil {
					h.Threads = append(h.Threads, n)
				}
			}
		case "reps":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("%w: bad reps %q", ErrBadRecord, v)
			}
			if h != nil {
				h.Reps = n
			}
		case "input":
			if h != nil {
				h.Input = v
			}
		case "started":
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				return fmt.Errorf("%w: bad start time %q", ErrBadRecord, v)
			}
			if h != nil {
				h.StartedAt = t
			}
		}
	}
	if !named {
		return fmt.Errorf("%w: header missing experiment name", ErrBadRecord)
	}
	return nil
}

// parseMeasurement parses a RUN record's fields into m, whose Values the
// caller has set, or only checks them when m is nil. more reports whether
// the record has any fields.
func parseMeasurement(fields string, more bool, m *Measurement) error {
	bench, typ := false, false
	for more {
		var f string
		f, fields, more = strings.Cut(fields, "|")
		k, v, err := kv(f)
		if err != nil {
			return err
		}
		switch k {
		case "suite":
			if m != nil {
				m.Suite = v
			}
		case "bench":
			bench = v != ""
			if m != nil {
				m.Benchmark = v
			}
		case "type":
			typ = v != ""
			if m != nil {
				m.BuildType = v
			}
		case "threads":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("%w: bad threads %q", ErrBadRecord, v)
			}
			if m != nil {
				m.Threads = n
			}
		case "rep":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("%w: bad rep %q", ErrBadRecord, v)
			}
			if m != nil {
				m.Rep = n
			}
		default:
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("%w: bad metric %s=%q", ErrBadRecord, k, v)
			}
			if m != nil {
				m.Values.Set(k, x)
			}
		}
	}
	if !bench || !typ {
		return fmt.Errorf("%w: measurement missing bench/type", ErrBadRecord)
	}
	return nil
}
