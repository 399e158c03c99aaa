package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"dsa/internal/engine"
	"dsa/internal/sim"
	"dsa/internal/workload/catalog"
)

// Call carries one cell invocation into a registered handler: the
// cell's key and the sweep's base seed (together they derive the
// cell's RNG), the wire spec naming the cell, and an engine.Env whose
// catalog is the worker process's own — shared across every cell this
// worker runs, so workloads materialize once per process no matter how
// many cells declare them.
type Call struct {
	Key  string
	Seed uint64
	Spec engine.Spec
	Env  engine.Env
}

// Handler runs one cell in a worker process. The returned value must
// be gob-serializable through an interface (proto.go's init registers
// the row vocabulary) and byte-for-byte what the corresponding
// in-process Job.Run would have produced — handlers and local closures
// should share one implementation.
type Handler func(ctx context.Context, c Call) (interface{}, error)

var (
	regMu    sync.RWMutex
	handlers = map[string]Handler{}
)

// Handle registers the handler a worker runs for cells whose Spec.Task
// equals task. It panics on an empty task or a duplicate registration:
// the registry is compiled-in configuration, not runtime state.
func Handle(task string, h Handler) {
	if task == "" || h == nil {
		panic("dist: Handle requires a task name and a handler")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := handlers[task]; dup {
		panic(fmt.Sprintf("dist: task %q registered twice", task))
	}
	handlers[task] = h
}

// lookupHandler returns the registered handler, nil if absent.
func lookupHandler(task string) Handler {
	regMu.RLock()
	defer regMu.RUnlock()
	return handlers[task]
}

// Tasks returns the sorted registered task names (diagnostics).
func Tasks() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(handlers))
	for t := range handlers {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// DefaultHeartbeat is how often a worker proves its link alive while a
// batch executes. Dispatcher-side link deadlines must be comfortably
// larger (DefaultLinkTimeout is 20× this), so a link is only declared
// dead after many consecutive missed beats, never by one slow frame.
const DefaultHeartbeat = 500 * time.Millisecond

// WorkerOptions configures the worker side of the protocol.
type WorkerOptions struct {
	// Catalog is the worker's per-process workload catalog, shared
	// across every cell and sweep this worker serves. Nil means a fresh
	// in-memory catalog; the CLIs pass a disk-backed store here when
	// spawned with -cache-dir, so workers replay workloads across
	// processes and runs.
	Catalog *catalog.Catalog
	// HeartbeatInterval is how often the worker emits heartbeat frames
	// while a batch is executing — the application-level liveness
	// signal that lets the dispatcher distinguish a slow cell (beats
	// keep arriving) from a dead link (silence). <= 0 means
	// DefaultHeartbeat. Heartbeats are consumed by the dispatcher's
	// transport and never change output bytes.
	HeartbeatInterval time.Duration
}

// WorkerMain is ServeWorker with default options — the historical
// entry point for a `<cmd> worker` subcommand without flags.
func WorkerMain(in io.Reader, out io.Writer) error {
	return ServeWorker(in, out, WorkerOptions{})
}

// ServeWorker is the stdio worker side of the protocol: the `<cmd>
// worker` subcommand calls it with the process's stdin and stdout. It
// serves request batches one frame at a time — parallelism comes from
// the dispatcher running N workers — until stdin closes (a clean
// shutdown, returning nil) or the protocol breaks. Cells run under the
// engine's standard contract: RNG seeded via sim.SeedFor(seed, key)
// and per-cell panic containment, with the recovered panic shipped
// back for the dispatcher to surface exactly as an in-process
// contained panic (the rest of the batch still runs). The TCP
// counterpart is Serve, which runs the same loop per accepted
// connection after a handshake.
func ServeWorker(in io.Reader, out io.Writer, o WorkerOptions) error {
	return serveConn(context.Background(), in, out, o)
}

// serveConn is the worker protocol loop shared by the stdio and TCP
// transports: read a request frame, run its batch, answer with a
// response frame — emitting heartbeat frames on a ticker while the
// batch executes, so the dispatcher's link deadline measures silence,
// not cell cost. ctx scopes the connection: when a heartbeat write
// fails (the link is gone and nothing this batch computes can be
// delivered) the in-flight batch's context is cancelled and the loop
// returns without waiting on cells that ignore cancellation — a
// serve-worker must not let one dead dialer pin a goroutine forever.
func serveConn(ctx context.Context, in io.Reader, out io.Writer, o WorkerOptions) error {
	r, ok := in.(*bufio.Reader)
	if !ok {
		r = bufio.NewReader(in)
	}
	w, ok := out.(*bufio.Writer)
	if !ok {
		w = bufio.NewWriter(out)
	}
	cat := o.Catalog
	if cat == nil {
		cat = catalog.New() // per-process workload catalog, shared across cells
	}
	hb := o.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	// Persistent per-connection codecs: the encoder ships each wire
	// type's definition once, and the decoder mirrors the dispatcher's
	// persistent encoder. The write mutex also serializes access to the
	// shared encoder: heartbeats come from a ticker racing the batch's
	// own response, and a frame torn between the two would
	// desynchronize the stream.
	fw := newFrameWriter(w)
	fr := newFrameReader(r)
	var wmu sync.Mutex
	send := func(v interface{}) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := fw.writeFrame(v); err != nil {
			return err
		}
		return w.Flush()
	}
	for {
		var req request
		if err := fr.readFrame(&req); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		batchCtx, cancel := context.WithCancel(ctx)
		done := make(chan *response, 1) // buffered: the batch goroutine never blocks on a departed reader
		go func() { done <- serve(batchCtx, &req, cat) }()
		ticker := time.NewTicker(hb)
		var resp *response
		var linkErr error
		for resp == nil && linkErr == nil {
			select {
			case resp = <-done:
			case <-ticker.C:
				if err := send(&response{ID: req.ID, Heartbeat: true}); err != nil {
					linkErr = err
					cancel() // the dialer is gone: tell the batch to stop
				}
			}
		}
		ticker.Stop()
		cancel()
		if linkErr != nil {
			return linkErr
		}
		if err := send(resp); err != nil {
			return err
		}
	}
}

// serve runs one request batch, cell by cell in order. ctx is the
// connection's context: cancelled when the link that asked for this
// batch has died, so well-behaved handlers can stop early.
func serve(ctx context.Context, req *request, cat *catalog.Catalog) *response {
	resp := &response{ID: req.ID, Results: make([]cellResp, len(req.Cells))}
	for i := range req.Cells {
		serveCell(ctx, &req.Cells[i], req.Seed, cat, &resp.Results[i])
	}
	return resp
}

// serveCell runs one cell with panic containment.
func serveCell(ctx context.Context, c *cellReq, seed uint64, cat *catalog.Catalog, out *cellResp) {
	out.Key = c.Key
	h := lookupHandler(c.Spec.Task)
	if h == nil {
		out.Err = fmt.Sprintf("dist: worker has no handler for task %q (registered: %v)", c.Spec.Task, Tasks())
		return
	}
	defer func() {
		if p := recover(); p != nil {
			stack := make([]byte, 8192)
			stack = stack[:runtime.Stack(stack, false)]
			out.Value = nil
			out.Err = ""
			out.Panicked = true
			out.PanicVal = fmt.Sprint(p)
			out.Stack = stack
		}
	}()
	env := engine.Env{RNG: sim.NewRNG(sim.SeedFor(seed, c.Key)), Catalog: cat}
	v, err := h(ctx, Call{Key: c.Key, Seed: seed, Spec: c.Spec, Env: env})
	if err != nil {
		out.Err = err.Error()
		return
	}
	out.Value = v
}
