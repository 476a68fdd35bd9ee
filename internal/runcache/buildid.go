package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"strings"
	"sync"
)

// headSize bounds what the build-ID route reads of the executable: the ELF
// header, the program headers and the Go note all sit in the first 32 KiB,
// where the go command's own reader (cmd/internal/buildid) looks for them.
const headSize = 32 << 10

// buildIDPrefix domain-separates the build-ID route's hash from the
// whole-file route's, so the two routes never share a fingerprint.
const buildIDPrefix = "cubie-go-buildid-content\x00"

// errNoFingerprint is Open's error when the executable cannot be
// identified: no fingerprint means no code identity to key entries by.
var errNoFingerprint = errors.New("runcache: cannot identify the executable")

var (
	fpOnce sync.Once
	fpVal  string
)

// Fingerprint returns the process fingerprint, computed once: 64 hex
// digits identifying the running executable's code (see the package doc),
// or "" when the executable cannot be read.
func Fingerprint() string {
	fpOnce.Do(func() {
		if exe, err := os.Executable(); err == nil {
			fpVal = fingerprintOf(exe)
		}
	})
	return fpVal
}

// fingerprintOf returns the fingerprint of the executable at path, or ""
// when it cannot be read.
func fingerprintOf(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	return fingerprintFrom(f)
}

// fingerprintFrom fingerprints the executable image r. When its first
// headSize bytes carry a well-formed Go build ID, the fingerprint is a
// SHA-256 over buildIDPrefix and the ID's last component, and nothing past
// those bytes is read: the go command sets that component to a hash of the
// linked file with the ID bytes zeroed, so it is already the file's content
// address. Otherwise it is the SHA-256 of the whole image. A read error
// yields "": a partial hash would be nondeterministic.
func fingerprintFrom(r io.Reader) string {
	head := make([]byte, headSize)
	n, err := io.ReadFull(r, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return ""
	}
	head = head[:n]
	h := sha256.New()
	if id := goBuildIDNote(head); id != "" {
		h.Write([]byte(buildIDPrefix))
		h.Write([]byte(id[strings.LastIndexByte(id, '/')+1:]))
	} else {
		h.Write(head)
		if _, err := io.Copy(h, r); err != nil {
			return ""
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ELF constants the note reader needs (the ELF gABI; the Go note's name
// and type are cmd/internal/buildid's).
const (
	elfClass32  = 1
	elfClass64  = 2
	elfData2LSB = 1
	elfData2MSB = 2
	elfPTNote   = 4
	goNoteName  = "Go\x00\x00"
	goNoteType  = 4
)

// goBuildIDNote returns the Go build ID in the ELF note the go command
// writes (.note.go.buildid: name "Go", type 4), read from head, the first
// bytes of an executable. It returns "" when head is not ELF, when no
// PT_NOTE segment lying wholly inside head holds that note, or when the ID
// is not well-formed (wellFormedBuildID). It reads nothing outside head.
func goBuildIDNote(head []byte) string {
	if len(head) < 16 || string(head[:4]) != "\x7fELF" {
		return ""
	}
	var bo byteOrder
	switch head[5] {
	case elfData2LSB:
	case elfData2MSB:
		bo.big = true
	default:
		return ""
	}
	// The program-header table's place and shape, and where a program
	// header keeps p_offset and p_filesz, depend on the class.
	var phoff, phentsize, phnum, minEnt uint64
	var progOff func(ph []byte) (off, size uint64)
	switch head[4] {
	case elfClass32:
		if len(head) < 52 {
			return ""
		}
		phoff = bo.uint(head[28:], 4)
		phentsize, phnum, minEnt = bo.uint(head[42:], 2), bo.uint(head[44:], 2), 32
		progOff = func(ph []byte) (uint64, uint64) {
			return bo.uint(ph[4:], 4), bo.uint(ph[16:], 4)
		}
	case elfClass64:
		if len(head) < 64 {
			return ""
		}
		phoff = bo.uint(head[32:], 8)
		phentsize, phnum, minEnt = bo.uint(head[54:], 2), bo.uint(head[56:], 2), 56
		progOff = func(ph []byte) (uint64, uint64) {
			return bo.uint(ph[8:], 8), bo.uint(ph[32:], 8)
		}
	default:
		return ""
	}
	if phentsize < minEnt || phoff > uint64(len(head)) {
		return ""
	}
	// phoff ≤ len(head) and i·phentsize < 2^32, so the sum cannot overflow.
	for i := uint64(0); i < phnum; i++ {
		ph := within(head, phoff+i*phentsize, phentsize)
		if ph == nil {
			return ""
		}
		if bo.uint(ph, 4) != elfPTNote {
			continue
		}
		off, size := progOff(ph)
		if id := goNote(within(head, off, size), bo); id != "" {
			return id
		}
	}
	return ""
}

// byteOrder reads the ELF file's unsigned integers: little-endian unless
// big is set. It stands in for encoding/binary on purpose: a binary that
// links this package but not encoding/binary would otherwise grow ahead of
// the kernels, and the kernels' placement alone moves their speed.
type byteOrder struct{ big bool }

// uint returns the n-byte integer at the start of b.
func (o byteOrder) uint(b []byte, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		if o.big {
			v = v<<8 | uint64(b[i])
		} else {
			v |= uint64(b[i]) << (8 * i)
		}
	}
	return v
}

// within returns b[start : start+n], or nil when that range does not lie
// inside b.
func within(b []byte, start, n uint64) []byte {
	if start > uint64(len(b)) || n > uint64(len(b))-start {
		return nil
	}
	return b[start : start+n]
}

// goNote walks the notes of one PT_NOTE segment and returns the
// well-formed Go build ID of its Go note, or "". Name and descriptor are
// each padded to 4 bytes, as the Go linker writes them.
func goNote(seg []byte, bo byteOrder) string {
	for len(seg) >= 12 {
		namesz, descsz := bo.uint(seg, 4), bo.uint(seg[4:], 4)
		desc := 12 + (namesz+3)&^3
		if namesz == uint64(len(goNoteName)) && bo.uint(seg[8:], 4) == goNoteType &&
			len(seg) >= 16 && string(seg[12:16]) == goNoteName {
			if d := within(seg, desc, descsz); d != nil && wellFormedBuildID(string(d)) {
				return string(d)
			}
			return ""
		}
		next := desc + (descsz+3)&^3
		if next >= uint64(len(seg)) {
			return ""
		}
		seg = seg[next:]
	}
	return ""
}

// wellFormedBuildID reports whether id has the shape the go command gives
// an executable's build ID: four '/'-separated hashes, each 20 characters
// of unpadded URL-safe base64. A hand-set ID (-ldflags=-buildid=…) of
// another shape is no content address, so it falls back to hashing the
// whole file.
func wellFormedBuildID(id string) bool {
	parts := strings.Split(id, "/")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if len(p) != 20 {
			return false
		}
		for i := 0; i < len(p); i++ {
			c := p[i]
			if !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
				return false
			}
		}
	}
	return true
}
