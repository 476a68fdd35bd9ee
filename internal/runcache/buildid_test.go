package runcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// selfHead returns the first headSize bytes of the running test binary,
// skipping the test where that binary is not ELF.
func selfHead(tb testing.TB) []byte {
	tb.Helper()
	exe, err := os.Executable()
	if err != nil {
		tb.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	head := make([]byte, headSize)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF {
		tb.Fatal(err)
	}
	if n < 4 || string(head[:4]) != "\x7fELF" {
		tb.Skip("the test binary is not ELF")
	}
	return head[:n]
}

// noteBytes encodes one ELF note: name (with its NUL padding) and desc,
// each padded to 4 bytes.
func noteBytes(bo binary.ByteOrder, name string, typ uint32, desc string) []byte {
	pad := func(s string) []byte { return append([]byte(s), make([]byte, -len(s)&3)...) }
	b := make([]byte, 12)
	bo.PutUint32(b, uint32(len(name)))
	bo.PutUint32(b[4:], uint32(len(desc)))
	bo.PutUint32(b[8:], typ)
	return append(append(b, pad(name)...), pad(desc)...)
}

// synthELF returns a minimal ELF image of the given class (elfClass32 or
// elfClass64) and byte order: a header, a PT_LOAD and a PT_NOTE program
// header, then the note segment seg.
func synthELF(class byte, bo binary.ByteOrder, seg []byte) []byte {
	data := byte(elfData2LSB)
	if bo == binary.BigEndian {
		data = elfData2MSB
	}
	ehsize, phentsize := 64, 56
	if class == elfClass32 {
		ehsize, phentsize = 52, 32
	}
	segOff := ehsize + 2*phentsize
	b := make([]byte, segOff, segOff+len(seg))
	copy(b, []byte{0x7f, 'E', 'L', 'F', class, data, 1})
	phdr := func(i int) []byte { return b[ehsize+i*phentsize:] }
	bo.PutUint32(phdr(0), 1) // PT_LOAD
	bo.PutUint32(phdr(1), elfPTNote)
	if class == elfClass32 {
		bo.PutUint32(b[28:], uint32(ehsize))
		bo.PutUint16(b[42:], uint16(phentsize))
		bo.PutUint16(b[44:], 2)
		bo.PutUint32(phdr(1)[4:], uint32(segOff))
		bo.PutUint32(phdr(1)[16:], uint32(len(seg)))
	} else {
		bo.PutUint64(b[32:], uint64(ehsize))
		bo.PutUint16(b[54:], uint16(phentsize))
		bo.PutUint16(b[56:], 2)
		bo.PutUint64(phdr(1)[8:], uint64(segOff))
		bo.PutUint64(phdr(1)[32:], uint64(len(seg)))
	}
	return append(b, seg...)
}

// TestGoBuildIDNote: the reader finds a well-formed ID in either ELF class
// and byte order, after another note in the same segment, and returns ""
// for an ID of any other shape or a note of another name or type.
func TestGoBuildIDNote(t *testing.T) {
	const id = "LN3jTAb48-TSNv5Xmjpc/w8DOzEUNObW125Y7dUgn/P147-PhOu8kqToLGzPz1/pdKfZpisd_7kqGrx4Rwo"
	gnu := func(bo binary.ByteOrder) []byte { return noteBytes(bo, "GNU\x00", 3, "0123456789abcdefghij") }
	for _, tc := range []struct {
		name string
		head []byte
		want string
	}{
		{"elf64 LE", synthELF(elfClass64, binary.LittleEndian, noteBytes(binary.LittleEndian, goNoteName, goNoteType, id)), id},
		{"elf32 BE", synthELF(elfClass32, binary.BigEndian, noteBytes(binary.BigEndian, goNoteName, goNoteType, id)), id},
		{"after a GNU note", synthELF(elfClass64, binary.LittleEndian,
			append(gnu(binary.LittleEndian), noteBytes(binary.LittleEndian, goNoteName, goNoteType, id)...)), id},
		{"hand-set ID", synthELF(elfClass64, binary.LittleEndian, noteBytes(binary.LittleEndian, goNoteName, goNoteType, "a/b/c/d")), ""},
		{"three parts", synthELF(elfClass64, binary.LittleEndian,
			noteBytes(binary.LittleEndian, goNoteName, goNoteType, id[strings.IndexByte(id, '/')+1:])), ""},
		{"non-base64 byte", synthELF(elfClass64, binary.LittleEndian,
			noteBytes(binary.LittleEndian, goNoteName, goNoteType, strings.Replace(id, "_", "+", 1))), ""},
		{"wrong type", synthELF(elfClass64, binary.LittleEndian, noteBytes(binary.LittleEndian, goNoteName, 3, id)), ""},
		{"wrong name", synthELF(elfClass64, binary.LittleEndian, noteBytes(binary.LittleEndian, "Gp\x00\x00", goNoteType, id)), ""},
		{"no note", synthELF(elfClass64, binary.LittleEndian, gnu(binary.LittleEndian)), ""},
		{"not ELF", []byte("#!/bin/sh\necho " + id + "\n"), ""},
	} {
		if got := goBuildIDNote(tc.head); got != tc.want {
			t.Errorf("%s: goBuildIDNote = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestFingerprintReadsOnlyTheHead: the process fingerprint is the one
// fingerprintFrom computes from at most the first 32 KiB of the
// executable, so start-up does not hash the binary.
func TestFingerprintReadsOnlyTheHead(t *testing.T) {
	if goBuildIDNote(selfHead(t)) == "" {
		t.Fatal("the test binary carries no Go build-ID note")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil || st.Size() <= headSize {
		t.Fatalf("test binary must be larger than %d bytes for this guard: %v, %v", headSize, st, err)
	}
	r := &countingReader{r: f}
	if got := fingerprintFrom(r); got != Fingerprint() {
		t.Fatalf("fingerprint from the head = %q, process fingerprint %q", got, Fingerprint())
	}
	if r.n > headSize {
		t.Fatalf("fingerprinting read %d bytes of the executable, want at most %d", r.n, headSize)
	}
}

// TestUnidentifiedExecutableDisablesCache: with no fingerprint there is no
// code identity to key entries by, so Open fails and FromEnv turns the
// cache off, and neither creates the directory.
func TestUnidentifiedExecutableDisablesCache(t *testing.T) {
	if fp := fingerprintOf(filepath.Join(t.TempDir(), "missing")); fp != "" {
		t.Fatalf("an unreadable executable has fingerprint %q, want none", fp)
	}
	Fingerprint() // computed once; blank it as an unreadable executable would
	saved := fpVal
	fpVal = ""
	t.Cleanup(func() { fpVal = saved })

	dir := filepath.Join(t.TempDir(), "cache")
	if c, err := Open(dir); c != nil || !errors.Is(err, errNoFingerprint) {
		t.Fatalf("Open without a fingerprint = %v, %v; want %v", c, err, errNoFingerprint)
	}
	t.Setenv(Env, dir)
	if c := FromEnv(); c != nil {
		t.Fatalf("FromEnv without a fingerprint opened %q, want the cache off", c.Dir())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the cache directory was created without a fingerprint: %v", err)
	}
}

// TestFingerprintFollowsContent builds one tiny program three times, with
// two different constants and then the first again: different code gets
// different fingerprints, equal code (and a byte copy elsewhere) equal
// ones, the ID read is the one `go tool buildid` reports, and a build
// with no ID or a non-ELF file gets the whole-file SHA-256.
func TestFingerprintFollowsContent(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	selfHead(t) // skips where executables are not ELF
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o755); err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(args ...string) string {
		cmd := exec.Command(goCmd, args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=", "GOTOOLCHAIN=local", "GOWORK=off", "GOPROXY=off", "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write("go.mod", "module fpprobe\n\ngo 1.22\n")
	build := func(out, msg string, flags ...string) string {
		write("main.go", "package main\n\nconst msg = \""+msg+"\"\n\nfunc main() { println(msg) }\n")
		run(append(append([]string{"build"}, flags...), "-o", out, ".")...)
		return filepath.Join(dir, out)
	}
	one, two, again := build("one", "one"), build("two", "two"), build("again", "one")
	fp := func(path string) string {
		t.Helper()
		s := fingerprintOf(path)
		if len(s) != 64 {
			t.Fatalf("fingerprint of %s = %q, want 64 hex digits", path, s)
		}
		return s
	}
	if fp(one) == fp(two) {
		t.Fatal("different code shares a fingerprint")
	}
	if fp(one) != fp(again) {
		t.Fatal("equal code got different fingerprints")
	}
	data, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "elsewhere"), 0o755); err != nil {
		t.Fatal(err)
	}
	if fp(write(filepath.Join("elsewhere", "copy"), string(data))) != fp(one) {
		t.Fatal("a byte copy at another path got a different fingerprint")
	}
	id := goBuildIDNote(data[:headSize])
	want := run("tool", "buildid", one)
	if id == "" || id != want {
		t.Fatalf("build ID read from the note = %q, go tool buildid = %q", id, want)
	}

	wholeFile := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	noID := build("noid", "one", "-ldflags=-buildid=")
	if got := run("tool", "buildid", noID); got != "" {
		t.Logf("this toolchain keeps the build ID %q despite -buildid=; the synthetic cases of TestGoBuildIDNote cover the fallback", got)
	} else if fp(noID) != wholeFile(noID) {
		t.Fatal("a build without a Go build ID must get the whole-file SHA-256")
	}
	script := write("script.sh", "#!/bin/sh\necho "+want+"\n")
	if fp(script) != wholeFile(script) {
		t.Fatal("a non-ELF file must get the whole-file SHA-256")
	}
}
