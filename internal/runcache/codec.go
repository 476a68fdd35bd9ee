package runcache

// The entry codec (see "Entry format" in the package doc). A decode
// failure is what Get turns into a silent miss: truncation, a foreign
// prefix, trailing bytes, a head that encoding/json would not write, a
// non-alphabet byte or line break in the base64, non-zero padding bits,
// or a float payload whose length is not a multiple of 8.

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"

	"repro/internal/sim"
)

// floats carries a []float64 payload as base64 of the raw little-endian
// IEEE-754 bits: bit-exact by construction (NaN payloads, −0 and ±Inf,
// which encoding/json rejects, included) and far cheaper to encode and
// decode than a JSON number array. nil encodes as null, an empty slice as
// "".
type floats []float64

// resultHeader is the small JSON head of a stored workload.Result: every
// field but the output array.
type resultHeader struct {
	Profile    sim.Profile
	Work       float64
	MetricName string
	InputUtil  float64
	OutputUtil float64
}

// storedResult is workload.Result's on-disk shape: the JSON head followed
// by the output array as the last field, "Output".
type storedResult struct {
	resultHeader
	Output floats
}

// floatChunk is how many floats one encode or decode step converts
// through a fixed buffer: 12 KiB of raw bits, a multiple of 3 bytes so
// every chunk but the last encodes to base64 without padding.
const floatChunk = 1536

var b64 = base64.StdEncoding.Strict()

// outputField joins a result's JSON head to its base64 output.
const outputField = `,"Output":`

// appendPrefix appends the entry bytes that precede the payload for
// (fp, kind, key).
func appendPrefix(buf []byte, fp, kind, key string) []byte {
	buf = append(buf, `{"fingerprint":`...)
	buf = appendString(buf, fp)
	buf = append(buf, `,"kind":`...)
	buf = appendString(buf, kind)
	buf = append(buf, `,"key":`...)
	buf = appendString(buf, key)
	return append(buf, `,"payload":`...)
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it.
func appendString(buf []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(buf, b...)
}

// encodeEntry builds the complete entry for v in one buffer. A floats or
// storedResult payload streams its float array into the buffer as base64;
// any other value is one json.Marshal.
func encodeEntry(fp, kind, key string, v any) ([]byte, error) {
	var head, foot []byte
	var tail floats
	hasTail := true
	switch v := v.(type) {
	case floats:
		tail = v
	case storedResult:
		h, err := json.Marshal(v.resultHeader)
		if err != nil {
			return nil, err
		}
		head = append(h[:len(h)-1], outputField...)
		tail, foot = v.Output, []byte("}")
	default:
		p, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		head, hasTail = p, false
	}
	size := len(fp) + len(kind) + len(key) + len(head) + len(foot) + 64
	if hasTail {
		size += b64.EncodedLen(8 * len(tail))
	}
	buf := appendPrefix(make([]byte, 0, size), fp, kind, key)
	buf = append(buf, head...)
	if hasTail {
		buf = tail.appendTo(buf)
	}
	buf = append(buf, foot...)
	return append(buf, '}'), nil
}

// decodeEntry decodes data into v if data is an entry whose prefix is
// exactly prefix (see appendPrefix) and whose payload is the canonical
// encoding of a value of v's type.
func decodeEntry(data, prefix []byte, v any) bool {
	p, ok := bytes.CutPrefix(data, prefix)
	if !ok {
		return false
	}
	if p, ok = bytes.CutSuffix(p, []byte("}")); !ok {
		return false
	}
	switch v := v.(type) {
	case *floats:
		return v.decode(p)
	case *storedResult:
		return v.decode(p)
	}
	return decodeJSON(p, v)
}

// decodeJSON unmarshals a payload into v and requires that v marshals
// back to the same bytes.
func decodeJSON(p []byte, v any) bool {
	if json.Unmarshal(p, v) != nil {
		return false
	}
	canon, err := json.Marshal(v)
	return err == nil && bytes.Equal(canon, p)
}

// decode parses a result payload: the JSON head, then ,"Output": and the
// base64 string (or null) that closes the object. Base64 has no '"', so
// the output's opening quote is the last one before its closing quote,
// whatever the head's strings contain.
func (s *storedResult) decode(p []byte) bool {
	body, ok := bytes.CutSuffix(p, []byte("}"))
	if !ok {
		return false
	}
	var out []byte
	if bytes.HasSuffix(body, []byte("null")) {
		out = body[len(body)-len("null"):]
	} else if len(body) > 0 && body[len(body)-1] == '"' {
		q := bytes.LastIndexByte(body[:len(body)-1], '"')
		if q < 0 {
			return false
		}
		out = body[q:]
	} else {
		return false
	}
	head, ok := bytes.CutSuffix(body[:len(body)-len(out)], []byte(outputField))
	if !ok {
		return false
	}
	// The 3-index slice makes append copy: head aliases the entry bytes.
	return decodeJSON(append(head[:len(head):len(head)], '}'), &s.resultHeader) && s.Output.decode(out)
}

// appendTo appends f's payload: null, or the quoted base64 of its bits.
func (f floats) appendTo(buf []byte) []byte {
	if f == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '"')
	var raw [8 * floatChunk]byte
	for i := 0; i < len(f); i += floatChunk {
		part := f[i:min(i+floatChunk, len(f))]
		for j, v := range part {
			binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(v))
		}
		buf = b64.AppendEncode(buf, raw[:8*len(part)])
	}
	return append(buf, '"')
}

// decode parses a floats payload, converting the base64 through a fixed
// buffer one chunk at a time straight into the result slice.
func (f *floats) decode(p []byte) bool {
	if string(p) == "null" {
		*f = nil
		return true
	}
	if len(p) < 2 || p[0] != '"' || p[len(p)-1] != '"' {
		return false
	}
	src := p[1 : len(p)-1]
	if len(src)%4 != 0 {
		return false
	}
	n := len(src) / 4 * 3
	if bytes.HasSuffix(src, []byte("==")) {
		n -= 2
	} else if bytes.HasSuffix(src, []byte("=")) {
		n--
	}
	if n%8 != 0 {
		return false
	}
	vs := make([]float64, n/8)
	var raw [8 * floatChunk]byte
	const chunkChars = 8 * floatChunk / 3 * 4
	for i := 0; i < len(vs); i += floatChunk {
		part := vs[i:min(i+floatChunk, len(vs))]
		enc := src[:min(chunkChars, len(src))]
		src = src[len(enc):]
		// Decode skips '\r' and '\n'; requiring the exact byte count
		// rejects them along with every other non-canonical form.
		if m, err := b64.Decode(raw[:], enc); err != nil || m != 8*len(part) {
			return false
		}
		for j := range part {
			part[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
	}
	if len(src) != 0 {
		return false
	}
	*f = vs
	return true
}
