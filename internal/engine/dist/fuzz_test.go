package dist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"dsa/internal/engine"
	"dsa/internal/sim"
)

// FuzzReadFrame: whatever bytes a peer sends, the frame readers must
// not panic, and a first frame whose length or checksum is bad must be
// an error, never a decode. Each input is read as a raw stream and
// also, checksummed, as one frame body, so arbitrary bytes reach gob
// too. The corpus starts from frames writeFrame produces.
func FuzzReadFrame(f *testing.F) {
	values := []interface{}{
		&request{ID: 9, Seed: 77, Cells: []cellReq{
			{Index: 4, Key: "k", Spec: engine.Spec{
				Task: "t", Machine: "atlas", Workload: "loop@2a", Args: map[string]string{"refs": "100"},
			}},
			{Index: 7, Key: "k2", Spec: engine.Spec{Task: "t"}},
		}},
		&response{ID: 9, Results: []cellResp{
			{Key: "k", Value: engine.RowBatch{{"lru", 3, 0.5, sim.Time(7)}}},
			{Key: "k2", Err: "boom", Panicked: true, PanicVal: "x"},
		}},
		&response{ID: 2, Heartbeat: true},
		&hello{Version: protoVersion, Token: "t"},
		&helloAck{OK: true, Version: protoVersion},
	}
	var stream bytes.Buffer
	fw := newFrameWriter(&stream)
	for _, v := range values {
		var one bytes.Buffer
		if err := writeFrame(&one, v); err != nil {
			f.Fatal(err)
		}
		f.Add(one.Bytes())
		if err := fw.writeFrame(v); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		err := readFrame(bytes.NewReader(data), &req)
		if err == nil && !validFirstFrame(data) {
			t.Fatalf("decoded a first frame with a bad length or checksum: %+v", req)
		}
		fr := newFrameReader(bytes.NewReader(data))
		for i := 0; i < 8; i++ {
			var resp response
			if fr.readFrame(&resp) != nil {
				break
			}
		}

		framed := make([]byte, 8, 8+len(data))
		binary.BigEndian.PutUint32(framed[:4], uint32(len(data)))
		binary.BigEndian.PutUint32(framed[4:], crc32.Checksum(data, crcTable))
		framed = append(framed, data...)
		var resp response
		_ = readFrame(bytes.NewReader(framed), &resp) // any error is fine; only a panic fails
	})
}

// TestFrameLengthAllocatesOnlyWhatArrives: a header claiming a frame
// of maxFrame bytes, followed by a few, is an error that allocates
// about what arrived — a peer cannot make the reader reserve maxFrame
// with eight bytes.
func TestFrameLengthAllocatesOnlyWhatArrives(t *testing.T) {
	data := make([]byte, 8+100)
	binary.BigEndian.PutUint32(data[:4], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req request
	err := readFrame(bytes.NewReader(data), &req)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a truncated frame")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("reading a truncated %d-byte frame allocated %d bytes", maxFrame, got)
	}
}

// validFirstFrame reports whether data starts with a complete frame
// whose length is within maxFrame and whose checksum matches.
func validFirstFrame(data []byte) bool {
	if len(data) < 8 {
		return false
	}
	n := binary.BigEndian.Uint32(data[:4])
	if n > maxFrame || uint64(len(data)-8) < uint64(n) {
		return false
	}
	return crc32.Checksum(data[8:8+n], crcTable) == binary.BigEndian.Uint32(data[4:8])
}
