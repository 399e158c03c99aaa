// Package dist distributes engine sweeps across worker processes: a
// dispatcher (Pool) that implements engine.Executor by sharding cells
// over a pool of workers, and the worker side (ServeWorker for child
// processes over stdio, Serve for remote serve-worker processes over
// TCP), speaking a length-prefixed, checksummed gob protocol over
// either byte stream.
//
// A cell crosses the process boundary as its engine.Spec — a task name
// resolved against the worker's compiled-in handler registry plus the
// sweep's base seed and the cell key. Cells travel in batches of
// Options.Batch per frame, amortizing the gob+pipe round trip across
// small cells; the worker runs each batch cell by cell, in order. The
// worker re-derives each cell's RNG exactly as the in-process pool
// does (sim.SeedFor(seed, key)) and materializes workloads from its
// own workload catalog by key — optionally a disk-backed store shared
// with the dispatcher and the other workers — so the immutable catalog
// is the wire boundary: no workload data is ever serialized, only the
// keys that deterministically regenerate it. Output is therefore
// byte-identical to an in-process run at any worker count and any
// batch size.
//
// The engine's fault-containment posture extends across the process
// boundary: a worker that crashes (or is killed) surfaces as a
// contained failure — a FAILED cell — for whatever cell it had in
// flight, the child is respawned within a bounded budget, and the
// sweep completes. A slot whose budget is exhausted (or whose binary
// cannot be spawned at all) degrades to running its cells in the
// dispatching process, so a sweep never wedges and never loses cells.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"dsa/internal/engine"
	"dsa/internal/sim"
)

// maxFrame bounds a single protocol frame. Cells return row batches
// and report strings, not bulk data; anything larger than this is a
// protocol error, not a workload.
const maxFrame = 64 << 20

// protoVersion is negotiated by the remote handshake (hello/helloAck),
// so a dialer and a serve-worker built from different revisions refuse
// each other cleanly instead of mis-decoding frames. The stdio
// transport needs no handshake: dispatcher and child are the same
// binary by construction.
//
// Version 2 switched the post-handshake stream from self-contained
// frames (a fresh gob encoder per frame, re-sending type definitions
// every time) to one persistent encoder/decoder pair per connection.
// The handshake itself still uses one-shot codecs — the first value on
// a fresh gob stream has identical bytes either way, so version skew
// in either direction is detected before any stateful frame flows.
const protoVersion = 2

// crcTable is the Castagnoli polynomial used for the per-frame
// payload checksum (hardware-accelerated on the platforms we run on).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hello opens a remote connection: the dialer's first frame. The
// serve-worker answers with a helloAck before any cells flow.
type hello struct {
	// Version is the dialer's protoVersion; a mismatch is refused.
	Version int
	// Token is the shared secret (Options.AuthToken / serve-worker
	// -auth-token). Empty matches only a server that requires none.
	Token string
}

// helloAck answers a hello.
type helloAck struct {
	// OK reports that the server accepted the connection.
	OK bool
	// Err says why it did not ("bad auth token", version skew).
	Err string
	// Version is the server's protoVersion.
	Version int
}

// cellReq is one cell inside a request batch.
type cellReq struct {
	// Index is the cell's position in the sweep (diagnostics only).
	Index int
	// Key is the cell's stable identity; the worker seeds the cell's
	// RNG from (Seed, Key) via sim.SeedFor, exactly as the in-process
	// pool does.
	Key string
	// Spec names the handler and carries the cell's parameters.
	Spec engine.Spec
}

// request asks a worker to run a batch of cells in order. Batching is
// the round-trip amortization: one frame each way per Options.Batch
// cells instead of per cell, which is what makes small-cell sweeps
// worth distributing at all.
type request struct {
	// ID matches the response to the request on one connection.
	ID uint64
	// Seed is the sweep's base seed, shared by every cell in the batch.
	Seed uint64
	// Cells is the batch, never empty.
	Cells []cellReq
}

// cellResp reports one cell's outcome within a response batch.
type cellResp struct {
	// Key echoes the cell key.
	Key string
	// Value is the cell's result (nil on failure). Its concrete type
	// must be gob-registered on both sides (see init).
	Value interface{}
	// Err is the cell's ordinary error, "" for none.
	Err string
	// Panicked reports that the cell died by panic and was contained
	// in the worker; PanicVal is fmt.Sprint of the panic value and
	// Stack the goroutine stack at recovery.
	Panicked bool
	PanicVal string
	Stack    []byte
}

// response answers one request, with Results parallel to its Cells. A
// panic in one cell of a batch is contained per cell — the worker
// survives and the remaining cells of the batch still run.
type response struct {
	// ID echoes the request.
	ID uint64
	// Heartbeat marks a keep-alive frame emitted while the request's
	// batch is still executing: no Results, just proof the link and the
	// worker are alive. Heartbeats are what let the dispatcher tell a
	// slow cell (frames keep arriving) from a dead or stalled link
	// (silence past the deadline); they are consumed by the transport
	// and never reach the engine, so they cannot change output bytes.
	Heartbeat bool
	// Results holds one entry per requested cell, in request order.
	Results []cellResp
}

// writeFrame encodes v with a one-shot gob encoder and writes it as
// one length-prefixed frame: a 4-byte big-endian length, a 4-byte
// CRC-32C of the payload, then the gob bytes. The checksum catches
// payload corruption on transports (a TCP path through middleboxes)
// where a flipped bit could otherwise gob-decode into silently wrong
// science. One-shot codecs serve the handshake (which must decode
// without any stream state, across protocol versions) and tests; the
// request/response stream uses a frameWriter/frameReader pair so type
// definitions cross the wire once per connection, not once per frame.
func writeFrame(w io.Writer, v interface{}) error {
	return newFrameWriter(w).writeFrame(v)
}

// readFrame reads one length-prefixed frame into v with a one-shot
// decoder; see writeFrame for when the one-shot codecs apply. io.EOF
// at a frame boundary is returned as-is (a clean end of stream); a
// partial frame surfaces as io.ErrUnexpectedEOF; a checksum mismatch
// is a hard error that must retire the connection — after corruption
// the stream can never be trusted to be framed correctly again.
func readFrame(r io.Reader, v interface{}) error {
	return newFrameReader(r).readFrame(v)
}

// frameWriter frames gob values onto one stream with a persistent
// encoder: gob sends each type definition once per encoder, so reusing
// the encoder (and its staging buffer) removes the dominant per-frame
// cost — re-encoding and re-transmitting the wire types of request,
// response, and every registered row value on every frame. Any encode
// or write error leaves the stream unusable; callers already retire
// the connection on error, and a fresh connection gets fresh codecs.
type frameWriter struct {
	w   io.Writer
	enc *gob.Encoder
	buf bytes.Buffer
}

// newFrameWriter returns a frameWriter whose frames a frameReader (or,
// for the first frame only, a one-shot readFrame) can decode.
func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: w}
	fw.enc = gob.NewEncoder(&fw.buf)
	return fw
}

// writeFrame stages one gob message in the reused buffer, then writes
// the framing header and payload.
func (fw *frameWriter) writeFrame(v interface{}) error {
	fw.buf.Reset()
	if err := fw.enc.Encode(v); err != nil {
		return err
	}
	if fw.buf.Len() > maxFrame {
		return fmt.Errorf("dist: frame %d bytes exceeds limit %d", fw.buf.Len(), maxFrame)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(fw.buf.Len()))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(fw.buf.Bytes(), crcTable))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(fw.buf.Bytes())
	return err
}

// frameReader decodes the frame stream a frameWriter produces, with a
// persistent decoder fed one verified frame body at a time. Every
// frame's checksum is verified before any of its bytes reach gob, so
// corruption still surfaces as a hard framing error, never a
// mis-decode. The body buffer is reused across frames.
type frameReader struct {
	r    io.Reader
	dec  *gob.Decoder
	body []byte
	off  int
}

func newFrameReader(r io.Reader) *frameReader {
	fr := &frameReader{r: r}
	// frameReader implements io.ByteReader, so gob uses it directly
	// instead of interposing a bufio.Reader that could read ahead
	// across frame boundaries.
	fr.dec = gob.NewDecoder(fr)
	return fr
}

// readFrame decodes the next non-heartbeat gob message. The encoder
// side emits exactly one gob message per frame, so the decoder
// consumes frame bodies in lockstep with fill.
func (fr *frameReader) readFrame(v interface{}) error {
	return fr.dec.Decode(v)
}

// fill reads and verifies the next frame body. io.EOF at a frame
// boundary is returned as-is: through gob it becomes Decode's clean
// end-of-stream error.
func (fr *frameReader) fill() error {
	var hdr [8]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("dist: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return fmt.Errorf("dist: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if uint32(cap(fr.body)) >= n {
		fr.body = fr.body[:n]
		if _, err := io.ReadFull(fr.r, fr.body); err != nil {
			return fmt.Errorf("dist: reading %d-byte frame: %w", n, err)
		}
	} else {
		// Grow only as bytes arrive: a corrupt length must not allocate
		// up to maxFrame before the stream shows it holds that much.
		var b bytes.Buffer
		if _, err := b.ReadFrom(io.LimitReader(fr.r, int64(n))); err != nil {
			return fmt.Errorf("dist: reading %d-byte frame: %w", n, err)
		}
		if uint32(b.Len()) < n {
			return fmt.Errorf("dist: reading %d-byte frame: %w", n, io.ErrUnexpectedEOF)
		}
		fr.body = b.Bytes()
	}
	if sum := crc32.Checksum(fr.body, crcTable); sum != binary.BigEndian.Uint32(hdr[4:]) {
		return fmt.Errorf("dist: frame checksum mismatch (%08x != %08x): corrupt stream", sum, binary.BigEndian.Uint32(hdr[4:]))
	}
	fr.off = 0
	return nil
}

// Read serves gob from the current frame body, fetching the next frame
// when the body is exhausted.
func (fr *frameReader) Read(p []byte) (int, error) {
	for fr.off >= len(fr.body) {
		if err := fr.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, fr.body[fr.off:])
	fr.off += n
	return n, nil
}

// ReadByte implements io.ByteReader for gob (see newFrameReader).
func (fr *frameReader) ReadByte() (byte, error) {
	for fr.off >= len(fr.body) {
		if err := fr.fill(); err != nil {
			return 0, err
		}
	}
	b := fr.body[fr.off]
	fr.off++
	return b, nil
}

func init() {
	// The row-value vocabulary of the experiment tables. gob
	// pre-registers the unnamed basics (int, float64, string, bool,
	// ...); the named types cells put in rows must be added here so
	// they survive the interface round-trip with their concrete type —
	// and thus their formatting — intact.
	gob.Register(engine.RowBatch{})
	gob.Register([]interface{}{})
	gob.Register(sim.Time(0))
	gob.Register(time.Duration(0))
	gob.Register(int64(0))
	gob.Register(uint64(0))
}
