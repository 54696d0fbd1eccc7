package runlog

import (
	"reflect"
	"strings"
	"testing"
)

// reserialize writes a parsed log back out through the Writer API.
func reserialize(t *testing.T, lg *Log) string {
	t.Helper()
	var sb strings.Builder
	w := NewWriter(&sb)
	if lg.Header.Experiment != "" {
		w.WriteHeader(lg.Header)
	}
	w.WriteEnv(lg.Environment)
	for _, m := range lg.Measurements {
		w.WriteMeasurement(m)
	}
	for _, n := range lg.Notes {
		w.WriteNote(n.Text)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// FuzzParseRoundTrip feeds arbitrary bytes to Parse. Whatever parses
// successfully must survive a serialize→reparse round trip with identical
// structured content — the property the cluster tier depends on when it
// ships shard logs across hosts and re-parses them on the coordinator.
// Records the parser rejects must fail with an error, never panic.
func FuzzParseRoundTrip(f *testing.F) {
	f.Add("HDR|experiment=splash|types=gcc_native,clang_native|benchmarks=fft,lu|threads=1,2|reps=3|input=test|started=2017-06-26T12:00:00Z\n" +
		"ENV|LC_ALL=C\n" +
		"RUN|suite=splash|bench=fft|type=gcc_native|threads=2|rep=0|cycles=12345.5|wall_ns=99\n" +
		"NOTE|dry run splash/fft [gcc_native]\n")
	f.Add("RUN|suite=phoenix|bench=histogram|type=gcc_asan|threads=1|rep=4|max_rss=1e+09\n")
	f.Add("NOTE|skipped splash/lu [clang_native]\n")
	f.Add("ENV|PATH=/usr/bin|with|pipes\n")
	f.Add("HDR|experiment=x\nRUN|bench=y|type=z\n")
	f.Add("")
	f.Add("BOGUS|kind\n")
	f.Add("RUN|bench=a|type=b|metric=notanumber\n")
	f.Add("HDR|experiment=a|threads=1,,2\n")
	f.Add("RUN|bench=a|type=b|rep=-1|threads=0\n")

	f.Fuzz(func(t *testing.T, input string) {
		lg, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejected input: fine, as long as Parse didn't panic
		}
		text := reserialize(t, lg)
		lg2, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("reserialized log failed to parse: %v\n--- input ---\n%q\n--- reserialized ---\n%q", err, input, text)
		}
		// The reserialized form is canonical, so compare structured content,
		// not bytes: a second round trip must be a fixed point. NaN metric
		// values serialize stably but break DeepEqual (NaN != NaN); the
		// fixed-point check below still covers them.
		nan := false
		for _, m := range lg.Measurements {
			for i := 0; i < m.Values.Len(); i++ {
				if _, v := m.Values.At(i); v != v {
					nan = true
				}
			}
		}
		if !nan && !reflect.DeepEqual(lg.Measurements, lg2.Measurements) {
			t.Fatalf("measurements changed across round trip:\n%#v\nvs\n%#v", lg.Measurements, lg2.Measurements)
		}
		if !reflect.DeepEqual(lg.Notes, lg2.Notes) {
			t.Fatalf("notes changed across round trip:\n%#v\nvs\n%#v", lg.Notes, lg2.Notes)
		}
		if lg.Header.Experiment != lg2.Header.Experiment || lg.Header.Reps != lg2.Header.Reps {
			t.Fatalf("header changed across round trip: %#v vs %#v", lg.Header, lg2.Header)
		}
		text2 := reserialize(t, lg2)
		if text != text2 {
			t.Fatalf("canonical form is not a fixed point:\n%q\nvs\n%q", text, text2)
		}
	})
}

// FuzzValidateMatchesParse proves the allocation-free validator is the
// same judge as the parser: on any input, ValidateText and Parse agree on
// whether it is a well-formed log and fail with the same error text.
func FuzzValidateMatchesParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n\nRUN|bench=a|type=b\n\n\nNOTE|x\n", // blank lines
		"RUN|bench=a|type=b|cycles=1\r\r\nNOTE|n\r\r\n", // \r\r line endings
		"RUN|bench=a|type=b\r\r\nBOGUS\r\n",             // error after \r\r line
		"NOTE|first\nRUN|bench=a|type=b|cycles=2",       // no final newline
		"RUN\n",                                // RUN without '|'
		"HDR\n",                                // HDR without '|'
		"ENV\n",                                // ENV without '|'
		"ENV|\nNOTE\nRUN|\n",                   // empty payloads
		"RUN|bench=a||type=b\n",                // empty field
		"RUN|bench=a|type=b|cycles=1.2.3\n",    // bad float
		"RUN|bench=a|type=b|rep=x\n",           // bad rep
		"HDR|types=a,b|threads=1,2|reps=3\n",   // header without experiment
		"HDR|experiment=e|threads=1,,2\n",      // bad thread count
		"HDR|experiment=e|started=yesterday\n", // bad start time
		"HDR|experiment=x|experiment=\n",       // name cleared by a later field
		"RUN|bench=a|type=b|bench=\n",          // bench cleared by a later field
		"HDR|experiment=e|types=gcc|benchmarks=fft|threads=1|reps=2|input=test|started=2017-06-26T12:00:00Z\n" +
			"ENV|LC_ALL=C|x\nRUN|suite=s|bench=fft|type=gcc|threads=1|rep=0|wall_ns=9\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		verr := ValidateText(input)
		_, perr := Parse(strings.NewReader(input))
		if (verr == nil) != (perr == nil) || (verr != nil && verr.Error() != perr.Error()) {
			t.Fatalf("ValidateText and Parse disagree on %q:\nvalidate: %v\nparse:    %v", input, verr, perr)
		}
	})
}
