package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuLayers are the buckets CPU profile samples are charged to, in
// report order: one per layer of the program plus gc (collector work
// with no program frame on its stack) and other (the benchmark's own
// client code, the scheduler, and small helper packages).
var cpuLayers = []string{
	"replace", "core", "mapping", "alloc", "store", "paging", "segment",
	"workload", "scenario", "engine", "experiments", "serve", "dist",
	"sim", "gc", "other",
}

// layerOfPackage maps a package path below dsa/internal/ to its layer.
func layerOfPackage(pkg string) string {
	switch {
	case pkg == "engine/dist":
		return "dist"
	case pkg == "engine" || pkg == "engine/battery":
		return "engine"
	case pkg == "experiments" || pkg == "metrics":
		return "experiments"
	case pkg == "workload" || strings.HasPrefix(pkg, "workload/"):
		return "workload"
	}
	for _, l := range cpuLayers {
		if pkg == l {
			return l
		}
	}
	return "other"
}

// layerOfFunc returns the layer of a dsa/internal function, or "" for
// any other function (runtime, standard library, the benchmark).
func layerOfFunc(fn string) string {
	const prefix = "dsa/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "[("); i >= 0 {
		rest = rest[:i] // generic arguments and receivers may hold paths
	}
	slash := strings.LastIndex(rest, "/")
	if dot := strings.Index(rest[slash+1:], "."); dot >= 0 {
		rest = rest[:slash+1+dot]
	}
	return layerOfPackage(rest)
}

// isGCFrame reports collector entry points that run on their own
// goroutines, where no program frame can be charged.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuSample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded), and its sample count.
type cpuSample struct {
	stack []string
	count int64
}

// attribute charges each sample to the layer of its nearest dsa/internal
// frame, walking from the leaf: runtime, map and other library frames
// count for the program code that called them (pprof -hide semantics).
// It returns samples per layer; the shares sum to 1 over cpuLayers.
func attribute(samples []cpuSample, into map[string]int64) {
	for _, s := range samples {
		layer := ""
		gc := false
		for _, fn := range s.stack {
			if l := layerOfFunc(fn); l != "" {
				layer = l
				break
			}
			gc = gc || isGCFrame(fn)
		}
		if layer == "" {
			layer = "other"
			if gc {
				layer = "gc"
			}
		}
		into[layer] += s.count
	}
}

// cpuShares converts per-layer sample counts into cpu.<layer>_frac
// metrics.
func cpuShares(counts map[string]int64, m metricSet) {
	var total int64
	for _, n := range counts {
		total += n
	}
	for _, l := range cpuLayers {
		m.set("cpu."+l+"_frac", "frac", ratio(float64(counts[l]), float64(total)))
	}
	m.set("cpu.samples", "count", float64(total))
}

// attributeFile parses a gzipped pprof CPU profile and adds its samples
// to into.
func attributeFile(path string, into map[string]int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	samples, err := parseCPUProfile(b)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	attribute(samples, into)
	return nil
}

// parseCPUProfile decodes the parts of a (gzipped) profile.proto the
// attribution needs: samples, locations, functions and the string
// table. The standard library writes this format but ships no reader.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					if vals := appendUints(nil, w, v, b); len(vals) > 0 && s.value == 0 {
						s.value = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.value}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errTruncated = errors.New("truncated profile")

// eachField walks the top-level fields of one protobuf message.
func eachField(b []byte, fn func(field, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field in either encoding.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
