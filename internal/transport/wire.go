package transport

// wire.go is the protocol's payload codec: explicit little-endian
// encode/decode of Request and Response. Buffers (session frames only —
// worker array payloads travel as bulk chunks) ride as raw typed-slice
// bytes (kernels.Buffer.RawBytes — zero copy on LE hosts); everything else
// is fixed-width fields and length-prefixed strings. Decoders are written
// against adversarial input: every read is bounds-checked and a malformed
// payload yields an error, never a panic (see FuzzWireRequest /
// FuzzWireResponse).

import (
	"encoding/binary"
	"errors"
	"math"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// errMalformed rejects payloads that do not parse; the fuzz targets assert
// decode never fails any other way (and never panics).
var errMalformed = errors.New("transport: malformed wire payload")

// wireMaxString bounds decoded string lengths (kernel sources are the
// largest legitimate strings; 16 MiB is far above any of them).
const wireMaxString = 16 << 20

// wireMaxElems bounds decoded buffer element counts (1 GiB of float64).
const wireMaxElems = 128 << 20

// --- append-style encoders -------------------------------------------------

func appendU8(dst []byte, v uint8) []byte   { return append(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}
func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendBuffer encodes presence, kind, element count and the raw
// little-endian bytes of b's typed slice.
func appendBuffer(dst []byte, b *kernels.Buffer) []byte {
	if b == nil {
		return appendU8(dst, 0)
	}
	dst = appendU8(dst, 1)
	dst = appendU8(dst, uint8(b.Kind))
	dst = appendU64(dst, uint64(b.Len()))
	return append(dst, b.RawBytes()...)
}

// --- cursor-style decoder --------------------------------------------------

// wireReader walks a payload with sticky error state: after the first
// failed read every subsequent read reports failure, so decode bodies can
// run straight-line and check once.
type wireReader struct {
	p   []byte
	off int
	bad bool
}

func (r *wireReader) fail() { r.bad = true }

func (r *wireReader) u8() uint8 {
	if r.bad || r.off+1 > len(r.p) {
		r.fail()
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

func (r *wireReader) u32() uint32 {
	if r.bad || r.off+4 > len(r.p) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.bad || r.off+8 > len(r.p) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) i64() int64   { return int64(r.u64()) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) str() string {
	n := r.u32()
	if r.bad || n > wireMaxString || r.off+int(n) > len(r.p) {
		r.fail()
		return ""
	}
	s := string(r.p[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *wireReader) buffer() *kernels.Buffer {
	if r.u8() == 0 || r.bad {
		return nil
	}
	kind := memmodel.ElemKind(r.u8())
	if kind < memmodel.Float32 || kind > memmodel.Int64 {
		r.fail()
		return nil
	}
	elems := r.u64()
	if r.bad || elems > wireMaxElems {
		r.fail()
		return nil
	}
	nbytes := int(elems) * int(kind.Size())
	if r.off+nbytes > len(r.p) {
		r.fail()
		return nil
	}
	b := kernels.NewBuffer(kind, int(elems))
	if nbytes > 0 {
		if err := b.SetRawBytes(0, r.p[r.off:r.off+nbytes]); err != nil {
			r.fail()
			return nil
		}
		r.off += nbytes
	}
	return b
}

// done reports whether the whole payload was consumed cleanly; trailing
// garbage is rejected so a frame length can never smuggle extra bytes.
func (r *wireReader) done() bool { return !r.bad && r.off == len(r.p) }

// --- Request ---------------------------------------------------------------

// appendRequest encodes req after dst. Layout (all little-endian):
//
//	u8  kind
//	i64 meta.id   u8 meta.kind   i64 meta.len
//	i64 arrayID
//	str src       str signature  str peerAddr
//	str inv.kernel  i64 grid  i64 block  u32 nargs
//	  per arg: u8 isArray  i64 array  f64 scalar
func appendRequest(dst []byte, req *Request) []byte {
	dst = appendU8(dst, uint8(req.Kind))
	dst = appendI64(dst, int64(req.Meta.ID))
	dst = appendU8(dst, uint8(req.Meta.Kind))
	dst = appendI64(dst, req.Meta.Len)
	dst = appendI64(dst, int64(req.ArrayID))
	dst = appendString(dst, req.Src)
	dst = appendString(dst, req.Signature)
	dst = appendString(dst, req.PeerAddr)
	dst = appendString(dst, req.Inv.Kernel)
	dst = appendI64(dst, int64(req.Inv.Grid))
	dst = appendI64(dst, int64(req.Inv.Block))
	dst = appendU32(dst, uint32(len(req.Inv.Args)))
	for _, a := range req.Inv.Args {
		var isArr uint8
		if a.IsArray {
			isArr = 1
		}
		dst = appendU8(dst, isArr)
		dst = appendI64(dst, int64(a.Array))
		dst = appendF64(dst, a.Scalar)
	}
	return dst
}

// wireMaxArgs bounds decoded invocation arity.
const wireMaxArgs = 1 << 16

// parseRequest decodes a Request payload produced by appendRequest.
func parseRequest(p []byte) (*Request, error) {
	req := &Request{}
	if err := parseRequestInto(p, req); err != nil {
		return nil, err
	}
	return req, nil
}

// parseRequestInto decodes into a caller-owned Request, so serve loops can
// reuse one struct per connection instead of allocating per message. The
// request is fully reset first; slice fields end up freshly allocated per
// parse, never aliased into the payload or a prior message.
func parseRequestInto(p []byte, req *Request) error {
	r := wireReader{p: p}
	*req = Request{}
	req.Kind = MsgKind(r.u8())
	req.Meta = grcuda.ArrayMeta{
		ID:   dag.ArrayID(r.i64()),
		Kind: memmodel.ElemKind(r.u8()),
		Len:  r.i64(),
	}
	req.ArrayID = dag.ArrayID(r.i64())
	req.Src = r.str()
	req.Signature = r.str()
	req.PeerAddr = r.str()
	req.Inv.Kernel = r.str()
	req.Inv.Grid = int(r.i64())
	req.Inv.Block = int(r.i64())
	nargs := r.u32()
	if r.bad || nargs > wireMaxArgs {
		return errMalformed
	}
	if nargs > 0 {
		req.Inv.Args = make([]core.ArgRef, nargs)
		for i := range req.Inv.Args {
			req.Inv.Args[i] = core.ArgRef{
				IsArray: r.u8() != 0,
				Array:   dag.ArrayID(r.i64()),
				Scalar:  r.f64(),
			}
		}
	}
	if !r.done() {
		return errMalformed
	}
	return nil
}

// --- Response --------------------------------------------------------------

// appendResponse encodes resp after dst:
//
//	u8 code   str err
//	i64 kernels  i64 arrays  i64 elapsed
func appendResponse(dst []byte, resp *Response) []byte {
	dst = appendU8(dst, uint8(resp.Code))
	dst = appendString(dst, resp.Err)
	dst = appendI64(dst, int64(resp.Kernels))
	dst = appendI64(dst, int64(resp.Arrays))
	return appendI64(dst, resp.Elapsed)
}

// parseResponse decodes a Response payload produced by appendResponse.
func parseResponse(p []byte) (*Response, error) {
	resp := &Response{}
	if err := parseResponseInto(p, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// parseResponseInto decodes into a caller-owned (possibly pooled)
// Response, resetting it first.
func parseResponseInto(p []byte, resp *Response) error {
	r := wireReader{p: p}
	*resp = Response{}
	resp.Code = ErrCode(r.u8())
	resp.Err = r.str()
	resp.Kernels = int(r.i64())
	resp.Arrays = int(r.i64())
	resp.Elapsed = r.i64()
	if !r.done() {
		return errMalformed
	}
	return nil
}

// requestEq reports deep equality of two requests; the fuzz round-trip
// target uses it (floats compare bit-exactly, including NaN payloads,
// because both sides went through the same f64 bits).
func requestEq(a, b *Request) bool {
	if a.Kind != b.Kind || a.Meta != b.Meta || a.ArrayID != b.ArrayID ||
		a.Src != b.Src || a.Signature != b.Signature || a.PeerAddr != b.PeerAddr ||
		a.Inv.Kernel != b.Inv.Kernel || a.Inv.Grid != b.Inv.Grid || a.Inv.Block != b.Inv.Block ||
		len(a.Inv.Args) != len(b.Inv.Args) {
		return false
	}
	for i := range a.Inv.Args {
		x, y := a.Inv.Args[i], b.Inv.Args[i]
		if x.IsArray != y.IsArray || x.Array != y.Array ||
			math.Float64bits(x.Scalar) != math.Float64bits(y.Scalar) {
			return false
		}
	}
	return true
}

func bufferEq(a, b *kernels.Buffer) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Kind != b.Kind || a.Len() != b.Len() {
		return false
	}
	ab, bb := a.RawBytes(), b.RawBytes()
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}
