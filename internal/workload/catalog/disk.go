package catalog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DiskVersion is the on-disk format-and-generator version. Bump it
// whenever the file layout changes OR any workload generator's output
// changes for an existing key: stale files then read as version-skewed
// and are regenerated instead of silently replaying old science.
const DiskVersion = 1

// diskMagic identifies a workload cache file.
const diskMagic = "dsa-workload"

// maxDiskEntry bounds a single cache file. Workloads are traces and
// request streams, not bulk datasets; anything larger is a format
// error, not a workload.
const maxDiskEntry = 256 << 20

// diskHeader precedes every payload, gob-encoded in its own
// length-prefixed frame so the payload bounds are explicit.
type diskHeader struct {
	// Magic is diskMagic; anything else is not ours.
	Magic string
	// Version is DiskVersion at write time.
	Version int
	// Key is the full catalog key, guarding against the (astronomically
	// unlikely) hash collision and making files inspectable.
	Key string
	// Type is the Go type the payload decodes into; a key re-read at a
	// different type regenerates rather than mis-decoding.
	Type string
	// Sum is the IEEE CRC-32 of the payload bytes.
	Sum uint32
}

// codec carries one concrete type's gob round-trip into the untyped
// store core. Built per Get call by newCodec.
type codec struct {
	typeName string
	encode   func(v interface{}) ([]byte, error)
	decode   func(b []byte) (interface{}, error)
}

// newCodec builds the disk codec for T. Encoding happens on the
// concrete type (not through an interface), so no gob registration is
// ever needed; a T gob cannot handle surfaces as an encode error and
// the value simply stays memory-only.
func newCodec[T any]() *codec {
	var zero T
	return &codec{
		typeName: fmt.Sprintf("%T", zero),
		encode: func(v interface{}) ([]byte, error) {
			t, ok := v.(T)
			if !ok {
				return nil, fmt.Errorf("value is %T, not %T", v, zero)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&t); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		decode: func(b []byte) (interface{}, error) {
			var t T
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&t); err != nil {
				return nil, err
			}
			return t, nil
		},
	}
}

// disk is a root store's content-addressed file layer. All methods
// degrade rather than fail: a load that cannot produce a valid value
// reports a miss, a save that cannot persist reports false, and the
// only side channel is the diagnostic log.
type disk struct {
	dir  string
	logf func(format string, args ...interface{})

	mu       sync.Mutex
	writable bool
	// unencodable remembers keys whose values gob rejected, so the
	// degradation is logged once per key, not once per sweep cell.
	unencodable map[string]bool
}

func newDisk(dir string, logf func(format string, args ...interface{})) *disk {
	if logf == nil {
		logf = stderrLog
	}
	d := &disk{dir: dir, logf: logf, writable: true, unencodable: make(map[string]bool)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		d.writable = false
		d.logf("cache dir %s unusable (%v); running memory-only", dir, err)
	}
	return d
}

// path content-addresses a key: the file name is a hash of the key, so
// arbitrary key strings (slashes, '@', spaces) map to flat file names.
func (d *disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, fmt.Sprintf("%x.wl", sum[:16]))
}

// load returns the cached value for key, or ok=false on any miss —
// absent, torn, corrupt, version-skewed, key-collided, or type-skewed.
// Only files that exist but fail validation are logged; a plain miss is
// silent.
func (d *disk) load(key string, c *codec) (interface{}, bool) {
	path := d.path(key)
	f, err := os.Open(path)
	if err != nil {
		return nil, false // a miss, however the open failed
	}
	defer f.Close()
	v, err := readEntry(f, key, c)
	if err != nil {
		d.logf("cache file %s for %q %v; regenerating", path, key, err)
		return nil, false
	}
	return v, true
}

// readEntry decodes and validates one cache file.
func readEntry(r io.Reader, key string, c *codec) (interface{}, error) {
	var hdrLen [4]byte
	if _, err := io.ReadFull(r, hdrLen[:]); err != nil {
		return nil, fmt.Errorf("truncated (%v)", err)
	}
	n := binary.BigEndian.Uint32(hdrLen[:])
	if n > maxDiskEntry {
		return nil, fmt.Errorf("has absurd %d-byte header", n)
	}
	// Read what arrives rather than allocating the claimed length up
	// front: a short file that claims a huge header costs its own size.
	hdrBytes, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("unreadable header (%v)", err)
	}
	if len(hdrBytes) < int(n) {
		return nil, fmt.Errorf("truncated in header (%d of %d bytes)", len(hdrBytes), n)
	}
	var hdr diskHeader
	if err := gob.NewDecoder(bytes.NewReader(hdrBytes)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("has undecodable header (%v)", err)
	}
	switch {
	case hdr.Magic != diskMagic:
		return nil, fmt.Errorf("is not a workload cache file (magic %q)", hdr.Magic)
	case hdr.Version != DiskVersion:
		return nil, fmt.Errorf("is version %d, want %d", hdr.Version, DiskVersion)
	case hdr.Key != key:
		return nil, fmt.Errorf("holds key %q (hash collision)", hdr.Key)
	case hdr.Type != c.typeName:
		return nil, fmt.Errorf("holds a %s, want %s", hdr.Type, c.typeName)
	}
	payload, err := io.ReadAll(io.LimitReader(r, maxDiskEntry+1))
	if err != nil {
		return nil, fmt.Errorf("unreadable (%v)", err)
	}
	if len(payload) > maxDiskEntry {
		return nil, fmt.Errorf("exceeds the %d-byte entry limit", maxDiskEntry)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != hdr.Sum {
		return nil, fmt.Errorf("fails its checksum (%08x, want %08x)", sum, hdr.Sum)
	}
	v, err := c.decode(payload)
	if err != nil {
		return nil, fmt.Errorf("fails to decode (%v)", err)
	}
	return v, nil
}

// save persists one materialization, reporting whether it was written.
// The write is atomic — temp file in the same directory, then rename —
// so concurrent stores (including other processes) sharing the
// directory can never observe a torn entry. An unencodable value is
// logged once per key; an IO failure disables further writes for this
// store (the directory is read-only or gone) but leaves loads active.
func (d *disk) save(key string, v interface{}, c *codec) bool {
	d.mu.Lock()
	writable := d.writable
	d.mu.Unlock()
	if !writable {
		return false
	}
	payload, err := c.encode(v)
	if err != nil {
		d.mu.Lock()
		noted := d.unencodable[key]
		d.unencodable[key] = true
		d.mu.Unlock()
		if !noted {
			d.logf("workload %q not disk-cacheable (%v); keeping it memory-only", key, err)
		}
		return false
	}
	if len(payload) > maxDiskEntry {
		d.logf("workload %q is %d bytes, over the %d-byte entry limit; keeping it memory-only",
			key, len(payload), maxDiskEntry)
		return false
	}
	if err := d.writeEntry(key, payload, c); err != nil {
		d.mu.Lock()
		d.writable = false
		d.mu.Unlock()
		d.logf("cannot write cache dir %s (%v); continuing memory-only", d.dir, err)
		return false
	}
	return true
}

// writeEntry writes header+payload to a temp file and renames it into
// place.
func (d *disk) writeEntry(key string, payload []byte, c *codec) error {
	hdr := diskHeader{
		Magic:   diskMagic,
		Version: DiskVersion,
		Key:     key,
		Type:    c.typeName,
		Sum:     crc32.ChecksumIEEE(payload),
	}
	f, err := os.CreateTemp(d.dir, ".wl-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := writeRaw(f, hdr, payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), d.path(key))
}

// writeRaw emits the wire form of one entry: length-prefixed gob
// header, then the payload bytes.
func writeRaw(w io.Writer, hdr diskHeader, payload []byte) error {
	var hdrBuf bytes.Buffer
	if err := gob.NewEncoder(&hdrBuf).Encode(&hdr); err != nil {
		return err
	}
	var hdrLen [4]byte
	binary.BigEndian.PutUint32(hdrLen[:], uint32(hdrBuf.Len()))
	if _, err := w.Write(hdrLen[:]); err != nil {
		return err
	}
	if _, err := w.Write(hdrBuf.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}
