package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"dsa/internal/trace"
	"dsa/internal/workload"
)

// TestReadEntryHeaderAllocBounded: a four-byte file claiming a header
// just under the entry limit must fail as truncated without allocating
// the claimed length.
func TestReadEntryHeaderAllocBounded(t *testing.T) {
	data := []byte{0x0f, 0xff, 0xff, 0xff}
	c := newCodec[[]int]()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readEntry(bytes.NewReader(data), "k", c)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated in header") {
		t.Fatalf("err = %v, want truncated in header", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("reading a %d-byte file allocated %d bytes, want < 1 MiB", len(data), got)
	}
}

// entryBytes is one cache file as writeRaw lays it out.
func entryBytes(tb testing.TB, hdr diskHeader, payload []byte) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := writeRaw(&b, hdr, payload); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// encodeEntry encodes v with its codec and frames it under a valid
// header for key.
func encodeEntry(tb testing.TB, key string, v interface{}, c *codec) []byte {
	tb.Helper()
	payload, err := c.encode(v)
	if err != nil {
		tb.Fatal(err)
	}
	return entryBytes(tb, diskHeader{Magic: diskMagic, Version: DiskVersion, Key: key,
		Type: c.typeName, Sum: crc32.ChecksumIEEE(payload)}, payload)
}

// validHeader reports whether data opens with a header readEntry may
// accept for key and typeName: right magic, version, key and type, and
// a checksum that matches the bytes after it.
func validHeader(data []byte, key, typeName string) bool {
	if len(data) < 4 {
		return false
	}
	n := binary.BigEndian.Uint32(data[:4])
	if uint64(n) > uint64(len(data)-4) {
		return false
	}
	var hdr diskHeader
	if gob.NewDecoder(bytes.NewReader(data[4:4+n])).Decode(&hdr) != nil {
		return false
	}
	return hdr.Magic == diskMagic && hdr.Version == DiskVersion && hdr.Key == key &&
		hdr.Type == typeName && crc32.ChecksumIEEE(data[4+n:]) == hdr.Sum
}

// FuzzReadEntry: whatever bytes sit in a cache file, readEntry must not
// panic, and a file whose magic, version, key, type or checksum is
// wrong must be an error, never a value. Each input is also wrapped as
// the payload of a valid entry, which must round-trip through writeRaw
// and readEntry unchanged. The corpus starts from writeRaw output for
// an []int and a generated trace, plus each with one header field
// wrong.
func FuzzReadEntry(f *testing.F) {
	ints, tr := newCodec[[]int](), newCodec[trace.Trace]()
	loop := workload.Loop(4, 64, 3)
	f.Add(encodeEntry(f, "k", []int{1, 2, 3}, ints))
	f.Add(encodeEntry(f, "k", loop, tr))
	payload, err := ints.encode([]int{7})
	if err != nil {
		f.Fatal(err)
	}
	good := diskHeader{Magic: diskMagic, Version: DiskVersion, Key: "k",
		Type: ints.typeName, Sum: crc32.ChecksumIEEE(payload)}
	for _, bad := range []func(h *diskHeader){
		func(h *diskHeader) { h.Magic = "not-ours" },
		func(h *diskHeader) { h.Version++ },
		func(h *diskHeader) { h.Key = "other" },
		func(h *diskHeader) { h.Type = tr.typeName },
		func(h *diskHeader) { h.Sum++ },
	} {
		h := good
		bad(&h)
		f.Add(entryBytes(f, h, payload))
	}
	f.Add([]byte{0x0f, 0xff, 0xff, 0xff})

	raw := newCodec[[]byte]()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []*codec{ints, tr} {
			v, err := readEntry(bytes.NewReader(data), "k", c)
			if err == nil && !validHeader(data, "k", c.typeName) {
				t.Fatalf("accepted a bad entry as a %s: %v", c.typeName, v)
			}
		}
		v, err := readEntry(bytes.NewReader(encodeEntry(t, "k", data, raw)), "k", raw)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got := v.([]byte); !bytes.Equal(got, data) {
			t.Fatalf("round trip changed the payload: %x, want %x", got, data)
		}
	})
}
