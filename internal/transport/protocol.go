// Package transport provides GrOUT's distributed deployment: real TCP
// sockets between the Controller and Worker processes. It implements
// core.Fabric, so the same Controller code that drives the in-process
// simulation drives genuine remote workers — array payloads are actually
// serialized and shipped, kernels execute their numeric implementations on
// the worker, and peer-to-peer transfers open direct worker-to-worker
// connections, as in the paper's architecture (Figure 3).
//
// The wire is a length-prefixed binary protocol with explicit
// little-endian encoding and a per-worker channel split (DESIGN.md §5.2):
// a low-latency control channel for pings/launches/builds and a bulk
// channel that streams array payloads in fixed-size chunks. Both are FIFO
// pipelines, so launches stream without a round trip each and transfers
// queue one behind the other; a multi-GiB transfer never
// head-of-line-blocks health probes or kernel launches, which travel on
// their own connection.
//
// In this mode time is wall-clock: the sim.VirtualTime values returned by
// fabric operations are nanoseconds since the fabric connected. The
// calibrated oversubscription model remains available through each
// worker's embedded simulator, but the timing authority for distributed
// runs is reality.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
)

// MsgKind enumerates protocol requests.
type MsgKind int

const (
	// MsgPing checks liveness.
	MsgPing MsgKind = iota
	// MsgEnsureArray mirrors array metadata on the worker.
	MsgEnsureArray
	// MsgReceiveArray delivers array contents to the worker (bulk
	// channel: the payload follows as chunk frames).
	MsgReceiveArray
	// MsgFetchArray pulls array contents from the worker (flushing GPU
	// state first; bulk channel).
	MsgFetchArray
	// MsgLaunch executes a kernel CE.
	MsgLaunch
	// MsgBuildKernel compiles mini-CUDA source on the worker.
	MsgBuildKernel
	// MsgFreeArray drops an array replica.
	MsgFreeArray
	// MsgPushTo instructs the worker to send an array directly to a peer
	// worker (P2P).
	MsgPushTo
	// MsgStats returns the worker's execution statistics.
	MsgStats
	// MsgShutdown stops the worker server.
	MsgShutdown
)

var msgNames = [...]string{
	"ping", "ensure-array", "receive-array", "fetch-array", "launch",
	"build-kernel", "free-array", "push-to", "stats", "shutdown",
}

func (k MsgKind) String() string {
	if int(k) < len(msgNames) {
		return msgNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// Request is one controller->worker (or worker->worker) message.
type Request struct {
	Kind      MsgKind
	Meta      grcuda.ArrayMeta
	ArrayID   dag.ArrayID
	Inv       core.Invocation
	Src       string // kernel source for MsgBuildKernel
	Signature string
	PeerAddr  string // target address for MsgPushTo
}

// ErrCode classifies a remote failure so well-known error kinds survive
// the wire as core sentinel errors rather than opaque strings.
type ErrCode uint8

const (
	// CodeOK: no error.
	CodeOK ErrCode = iota
	// CodeGeneric: a failure with no sentinel mapping.
	CodeGeneric
	// CodeArrayNotFound maps to core.ErrArrayNotFound.
	CodeArrayNotFound
	// CodeKernelCompile maps to core.ErrKernelCompile.
	CodeKernelCompile
	// CodeOOM maps to core.ErrOOM.
	CodeOOM
	// CodeTimeout maps to core.ErrTimeout (e.g. a worker's P2P push hit
	// its peer deadline); the controller may retry it.
	CodeTimeout
	// CodeTransient maps to core.ErrTransient (e.g. a worker's P2P dial
	// was refused mid-restart); the controller may retry it.
	CodeTransient
	// CodeQuotaExceeded maps to core.ErrQuotaExceeded: the gateway
	// refused a tenant allocation over its array-byte quota.
	CodeQuotaExceeded
	// CodeShedded maps to core.ErrShedded: the gateway refused a launch
	// because the shard's admission backlog crossed the tenant class's
	// shed threshold. Retryable overload, not a sticky stream error.
	CodeShedded
)

// codeFor classifies an error for the wire.
func codeFor(err error) ErrCode {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, core.ErrArrayNotFound):
		return CodeArrayNotFound
	case errors.Is(err, core.ErrKernelCompile):
		return CodeKernelCompile
	case errors.Is(err, core.ErrOOM), errors.Is(err, gpusim.ErrHostMemoryExhausted):
		return CodeOOM
	case errors.Is(err, core.ErrTimeout):
		return CodeTimeout
	case errors.Is(err, core.ErrTransient):
		return CodeTransient
	case errors.Is(err, core.ErrQuotaExceeded):
		return CodeQuotaExceeded
	case errors.Is(err, core.ErrShedded):
		return CodeShedded
	default:
		return CodeGeneric
	}
}

// sentinel maps a wire code back to the core sentinel, or nil.
func (c ErrCode) sentinel() error {
	switch c {
	case CodeArrayNotFound:
		return core.ErrArrayNotFound
	case CodeKernelCompile:
		return core.ErrKernelCompile
	case CodeOOM:
		return core.ErrOOM
	case CodeTimeout:
		return core.ErrTimeout
	case CodeTransient:
		return core.ErrTransient
	case CodeQuotaExceeded:
		return core.ErrQuotaExceeded
	case CodeShedded:
		return core.ErrShedded
	default:
		return nil
	}
}

// Response answers a Request.
type Response struct {
	Err     string
	Code    ErrCode // sentinel classification of Err
	Kernels int     // MsgStats: kernels executed
	Arrays  int     // MsgStats: arrays resident
	Elapsed int64   // MsgStats: worker-simulated busy nanoseconds
}

// setErr records err (with its wire code) on the response.
func (r *Response) setErr(err error) {
	if err == nil {
		return
	}
	r.Err = err.Error()
	r.Code = codeFor(err)
}

// ok reports whether the response carries no error; remote failures come
// back wrapped in their sentinel (errors.Is-able) when classified.
func (r *Response) ok() error {
	if r.Err == "" {
		return nil
	}
	if s := r.Code.sentinel(); s != nil {
		return fmt.Errorf("transport: remote error: %s (%w)", r.Err, s)
	}
	return fmt.Errorf("transport: remote error: %s", r.Err)
}

// --- worker channels ---------------------------------------------------------

// ctrlWire is the worker channels' payload codec.
var ctrlWire = wireCodec[Request, Response]{
	kind:   func(req *Request) string { return req.Kind.String() },
	encode: appendRequest,
	decode: parseResponseInto,
}

// rpcConn is one worker channel — control, bulk, or a worker→worker peer
// link, which is a bulk channel — as the FIFO pipeline (pipeline.go) over
// the Request/Response codec. The worker serves each connection strictly
// in order: a launch queued behind another runs after it, and a transfer
// queued behind another starts when that one is done.
type rpcConn struct {
	*pipeline[Request, Response]
}

func newRPCConn(fc *framedConn, timeout time.Duration) *rpcConn {
	return &rpcConn{newPipeline(fc, &ctrlWire, timeout)}
}

// call performs one blocking round trip; a remote failure comes back as
// the error.
func (c *rpcConn) call(req *Request) (Response, error) { return c.move(req, nil) }

// move is call for a request that moves x's array bytes. A remote failure
// takes precedence over the short incoming stream it explains.
func (c *rpcConn) move(req *Request, x *transfer) (Response, error) {
	resp, err := c.pipeline.call(req, x)
	if rerr := resp.ok(); rerr != nil {
		err = rerr
	}
	return resp, err
}

// sendArray streams raw, an array's wire bytes, to the remote array id as
// chunk frames right behind the request (see framedConn.writeChunks for
// lock). The worker answers once every chunk has landed.
func (c *rpcConn) sendArray(id dag.ArrayID, meta grcuda.ArrayMeta, raw []byte, chunk int, lock sync.Locker) error {
	_, err := c.move(&Request{Kind: MsgReceiveArray, ArrayID: id, Meta: meta},
		&transfer{send: raw, chunk: chunk, lock: lock})
	return err
}

// fetchArray pulls the remote array id into dst; the reader lands its
// chunks there straight off the socket.
func (c *rpcConn) fetchArray(id dag.ArrayID, dst []byte) error {
	_, err := c.move(&Request{Kind: MsgFetchArray, ArrayID: id}, &transfer{recv: dst})
	return err
}

// pushTo commands the worker to ship array id directly to the peer at
// addr (P2P). The answer comes when the peer acknowledged the data, however
// long the transfer takes.
func (c *rpcConn) pushTo(id dag.ArrayID, addr string) error {
	_, err := c.move(&Request{Kind: MsgPushTo, ArrayID: id, PeerAddr: addr}, &transfer{untimed: true})
	return err
}
