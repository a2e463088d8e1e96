// Package service implements DjiNN itself (Section 3.1): a standalone
// DNN-inference service accepting requests over a custom socket
// protocol on TCP/IP. Pre-trained models are loaded once at start-up
// and shared read-only across all workers; incoming requests are
// batched across connections (Section 5.1's throughput optimisation)
// and executed by a pool of workers, each owning its private activation
// buffers.
package service

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"djinn/internal/trace"
)

// Wire protocol: little-endian framed messages.
//
//	request:  magic 'DJRQ' u32 | appLen u16 | app bytes | deadlineMicros u32 | nFloats u32 | floats
//	traced:   magic 'DJRT' u32 | idLen u8 | id bytes | <request body as above, minus magic>
//	response: magic 'DJRS' u32 | status u8  | msgLen u16 | msg bytes  | nFloats u32 | floats
//
// The traced frame is the optional trace-ID header: a client (or
// router) that minted a request ID sends 'DJRT' so every hop can
// annotate spans under that ID; untraced clients keep sending 'DJRQ'
// and old servers simply never see the new magic. idLen is bounded by
// trace.MaxIDLen; a zero idLen is legal and means "untraced" (the
// frame degrades to a plain request).
//
// The request payload is the preprocessed input for one query: a batch
// of DNN input instances laid out contiguously (e.g. 548 spliced
// feature vectors for ASR, 28 word windows for POS). The response is
// the corresponding probability vectors.
//
// deadlineMicros is the client's remaining latency budget in
// microseconds (0 = unbounded). It is a relative duration, not a wall
// clock, so client/server clock skew cannot expire a query spuriously;
// the server arms a context deadline from it and sheds the query at
// whichever lifecycle stage the budget runs out.
const (
	reqMagic      = 0x444a5251 // "DJRQ"
	reqTraceMagic = 0x444a5254 // "DJRT" — request carrying a trace-ID header
	respMagic     = 0x444a5253 // "DJRS"
	ctrlMagic     = 0x444a4343 // "DJCC" — control commands (apps, stats)

	// StatusOK indicates a successful inference.
	StatusOK = 0
	// StatusError indicates a failed request; the message explains why.
	StatusError = 1
	// StatusDeadline indicates the query's deadline expired before a
	// result was produced (maps to ErrDeadlineExceeded client-side).
	StatusDeadline = 2
	// StatusShutdown indicates the server is draining and rejected the
	// query (maps to ErrShuttingDown client-side).
	StatusShutdown = 3
	// StatusOverload indicates the query was shed because the app's
	// pending queue was full (maps to ErrOverloaded client-side).
	StatusOverload = 4

	// MaxAppNameLen bounds the application-name field.
	MaxAppNameLen = 128
	// MaxPayloadFloats bounds a request or response payload (64M
	// floats = 256 MB), a sanity limit against corrupt frames.
	MaxPayloadFloats = 64 << 20
)

func writeUint32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readUint32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// wireChunk is the most floats a payload read or write converts per
// step; a message's scratch buffer is never larger.
const wireChunk = 4096

func writeFloats(w io.Writer, data []float32) error {
	if err := writeUint32(w, uint32(len(data))); err != nil {
		return err
	}
	buf := make([]byte, 4*min(len(data), wireChunk))
	for off := 0; off < len(data); off += wireChunk {
		chunk := data[off:min(off+wireChunk, len(data))]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:len(chunk)*4]); err != nil {
			return err
		}
	}
	return nil
}

// readFloats reads a length-prefixed float payload. Memory follows the
// bytes that actually arrive, not the length the header claims: the
// payload grows a chunk at a time, to at most twice what has arrived
// plus one chunk, so a peer that claims MaxPayloadFloats and stalls
// pins kilobytes, not 256 MB.
func readFloats(r io.Reader) ([]float32, error) {
	n, err := readUint32(r)
	if err != nil {
		return nil, err
	}
	if n > MaxPayloadFloats {
		return nil, fmt.Errorf("service: payload of %d floats exceeds limit", n)
	}
	total := int(n)
	buf := make([]byte, 4*min(total, wireChunk))
	data := make([]float32, 0, min(total, wireChunk))
	for off := 0; off < total; off = len(data) {
		k := min(total-off, wireChunk)
		chunk := buf[:4*k]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		if off+k > cap(data) {
			grown := make([]float32, off, min(total, 2*off+wireChunk))
			copy(grown, data)
			data = grown
		}
		data = data[:off+k]
		for i := range k {
			data[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(chunk[4*i:]))
		}
	}
	return data, nil
}

// maxWireDeadline is the largest budget the u32 microsecond field can
// carry (~71 minutes); longer deadlines are clamped — any real query
// SLA is orders of magnitude shorter.
const maxWireDeadline = time.Duration(math.MaxUint32) * time.Microsecond

// writeRequest frames one inference request. deadline is the remaining
// latency budget (0 = none).
func writeRequest(w io.Writer, app string, deadline time.Duration, in []float32) error {
	if err := writeUint32(w, reqMagic); err != nil {
		return err
	}
	return writeRequestFields(w, app, deadline, in)
}

// writeTracedRequest frames one inference request carrying a trace-ID
// header ('DJRT').
func writeTracedRequest(w io.Writer, id, app string, deadline time.Duration, in []float32) error {
	if len(id) > trace.MaxIDLen {
		return fmt.Errorf("service: trace id of %d bytes exceeds %d", len(id), trace.MaxIDLen)
	}
	if err := writeUint32(w, reqTraceMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{byte(len(id))}); err != nil {
		return err
	}
	if _, err := io.WriteString(w, id); err != nil {
		return err
	}
	return writeRequestFields(w, app, deadline, in)
}

// writeRequestFields writes the request body shared by the plain and
// traced frames (everything after the magic and optional trace header).
func writeRequestFields(w io.Writer, app string, deadline time.Duration, in []float32) error {
	if len(app) == 0 || len(app) > MaxAppNameLen {
		return fmt.Errorf("service: bad app name length %d", len(app))
	}
	var nl [2]byte
	binary.LittleEndian.PutUint16(nl[:], uint16(len(app)))
	if _, err := w.Write(nl[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, app); err != nil {
		return err
	}
	if deadline < 0 || deadline > maxWireDeadline {
		deadline = maxWireDeadline
	}
	if err := writeUint32(w, uint32(deadline/time.Microsecond)); err != nil {
		return err
	}
	return writeFloats(w, in)
}

// readTraceHeader parses the trace-ID header of a 'DJRT' frame after
// its magic has been consumed. A zero-length ID is legal (untraced);
// an oversized one is a protocol violation.
func readTraceHeader(r io.Reader) (string, error) {
	var lb [1]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return "", err
	}
	n := int(lb[0])
	if n == 0 {
		return "", nil
	}
	if n > trace.MaxIDLen {
		return "", fmt.Errorf("service: trace id of %d bytes exceeds %d", n, trace.MaxIDLen)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(r, id); err != nil {
		return "", err
	}
	return string(id), nil
}

// readRequest parses one inference request (including its magic).
func readRequest(r io.Reader) (app string, deadline time.Duration, in []float32, err error) {
	magic, err := readUint32(r)
	if err != nil {
		return "", 0, nil, err
	}
	if magic != reqMagic {
		return "", 0, nil, fmt.Errorf("service: bad request magic %#x", magic)
	}
	return readRequestBody(r)
}

// readRequestBody parses an inference request after its magic has been
// consumed (the server dispatches on the magic).
func readRequestBody(r io.Reader) (app string, deadline time.Duration, in []float32, err error) {
	var nl [2]byte
	if _, err := io.ReadFull(r, nl[:]); err != nil {
		return "", 0, nil, err
	}
	nameLen := binary.LittleEndian.Uint16(nl[:])
	if nameLen == 0 || nameLen > MaxAppNameLen {
		return "", 0, nil, fmt.Errorf("service: bad app name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", 0, nil, err
	}
	micros, err := readUint32(r)
	if err != nil {
		return "", 0, nil, err
	}
	in, err = readFloats(r)
	if err != nil {
		return "", 0, nil, err
	}
	return string(name), time.Duration(micros) * time.Microsecond, in, nil
}

// writeResponse frames one inference response.
func writeResponse(w io.Writer, status byte, msg string, out []float32) error {
	if err := writeUint32(w, respMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{status}); err != nil {
		return err
	}
	if len(msg) > 1<<16-1 {
		msg = msg[:1<<16-1]
	}
	var ml [2]byte
	binary.LittleEndian.PutUint16(ml[:], uint16(len(msg)))
	if _, err := w.Write(ml[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, msg); err != nil {
		return err
	}
	return writeFloats(w, out)
}

// readResponse parses one inference response.
func readResponse(r io.Reader) (status byte, msg string, out []float32, err error) {
	magic, err := readUint32(r)
	if err != nil {
		return 0, "", nil, err
	}
	if magic != respMagic {
		return 0, "", nil, fmt.Errorf("service: bad response magic %#x", magic)
	}
	var sb [1]byte
	if _, err := io.ReadFull(r, sb[:]); err != nil {
		return 0, "", nil, err
	}
	var ml [2]byte
	if _, err := io.ReadFull(r, ml[:]); err != nil {
		return 0, "", nil, err
	}
	msgBytes := make([]byte, binary.LittleEndian.Uint16(ml[:]))
	if _, err := io.ReadFull(r, msgBytes); err != nil {
		return 0, "", nil, err
	}
	out, err = readFloats(r)
	if err != nil {
		return 0, "", nil, err
	}
	return sb[0], string(msgBytes), out, nil
}

// writeControl frames one control command (a short text command such as
// "apps" or "stats <app>"). The response reuses the standard response
// frame with the answer in its message field.
func writeControl(w io.Writer, cmd string) error {
	if len(cmd) == 0 || len(cmd) > 1024 {
		return fmt.Errorf("service: bad control command length %d", len(cmd))
	}
	if err := writeUint32(w, ctrlMagic); err != nil {
		return err
	}
	var nl [2]byte
	binary.LittleEndian.PutUint16(nl[:], uint16(len(cmd)))
	if _, err := w.Write(nl[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, cmd)
	return err
}

// readControlBody parses a control command after its magic.
func readControlBody(r io.Reader) (string, error) {
	var nl [2]byte
	if _, err := io.ReadFull(r, nl[:]); err != nil {
		return "", err
	}
	n := binary.LittleEndian.Uint16(nl[:])
	if n == 0 || n > 1024 {
		return "", fmt.Errorf("service: bad control command length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
