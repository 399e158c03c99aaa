package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"dsa/internal/trace"
	"dsa/internal/workload"
	"dsa/internal/workload/stock"
)

// FuzzTraceDecode: whatever bytes a trace file holds, Decode must not
// panic, and a trace it accepts must survive Encode then Decode
// unchanged. The corpus starts from the encoded stock workloads, with
// and without advice directives and segment names.
func FuzzTraceDecode(f *testing.F) {
	for _, kind := range stock.Kinds() {
		if kind == "segments" {
			continue
		}
		tr, err := stock.Linear(nil, kind, 8192, 40, 1)
		if err != nil {
			f.Fatal(err)
		}
		if len(tr) > 40 {
			tr = tr[:40]
		}
		addSeed(f, tr)
		addSeed(f, workload.WithAdvice(tr, 10, 512))
	}
	addSeed(f, trace.Trace{{Op: trace.Read, Name: 3, Seg: "alpha"}, {Op: trace.Write, Name: 9, Seg: "b"}})
	f.Add([]byte("# comment\n\n  R 5\nW 6 seg\nA keep-resident 0 64\n"))
	f.Add([]byte("R 18446744073709551616\n"))
	f.Add([]byte("A none 1 2\nX 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatalf("Encode of a decoded trace: %v", err)
		}
		again, err := trace.Decode(&buf)
		if err != nil {
			t.Fatalf("Decode of an encoded trace: %v\n%s", err, buf.Bytes())
		}
		if len(tr) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\n got  %+v\n want %+v", again, tr)
		}
	})
}

func addSeed(f *testing.F, tr trace.Trace) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}
