// Package runcache is the persistent, content-addressed on-disk cache of
// experiment artifacts. Every workload execution in this reproduction is
// deterministic and bit-pinned (see determinism_test.go at the repo root),
// so a (workload, case, variant) result computed by one process is valid
// for every later process running the same code under the same
// behavior-changing configuration. The harness stores workload.Result
// values here keyed by that triple plus a process fingerprint; a warm
// `cubie all` then re-renders every figure without starting a single
// workload execution.
//
// # Fingerprint
//
// An entry is only served back to a process whose fingerprint matches the
// writer's. The fingerprint identifies the executable's code by the Go
// build ID the go command wrote into its ELF note (.note.go.buildid). The
// ID's last component is a hash the go command takes of the linked file
// with the ID bytes zeroed, so it is a content address computed once at
// build time: the same code gives the same fingerprint, at any path, and a
// changed byte gives a miss. Reading it touches only the file's first
// 32 KiB, so start-up does not hash the binary. When the file is not ELF
// or carries no well-formed four-part ID (a build with -ldflags=-buildid=,
// for one), the fingerprint is the SHA-256 of the whole file instead.
// When the executable cannot be read at all there is no fingerprint, and
// the cache is off: FromEnv returns nil and Open fails.
//
// No environment variable takes part: every kernel has one route, and
// results are bit-identical for every CUBIE_WORKERS count. Recompiling
// changed code therefore misses cleanly and re-runs.
//
// # Entry format
//
// An entry is one JSON document, stored under the name EntryName gives it
// (kind-<24 hex>.json):
//
//	{"fingerprint":<fp>,"kind":<kind>,"key":<key>,"payload":<payload>}
//
// Float arrays (workload outputs and reference outputs, up to millions of
// elements) are one base64 string of their little-endian IEEE-754 bits,
// bit-exact by construction, and always the payload's last value. Put
// builds an entry in one buffer: the prefix above, the payload's small
// JSON head, then the base64 array. Get runs no JSON scanner over the
// array. It checks identity by comparing the entry's leading bytes with
// the prefix Put writes for the (fingerprint, kind, key) it asks for,
// decodes the head with encoding/json, and decodes the base64 in
// fixed-size chunks straight into the []float64. The reader is strict: it
// accepts only the exact bytes Put writes for the value it decodes. Every
// entry is still plain JSON, which the cache store's WriteEntry relies on
// when it checks a peer's entry against its name.
//
// # Remote tier
//
// The cache is two-tiered. The local directory is L1; when a remote store
// is attached (AttachRemote, or CUBIE_REMOTE_CACHE via FromEnv) a peer
// daemon's GET/PUT /api/v1/cache/{key} endpoints are L2, addressed by the
// same content address — the entry file name. An L1 miss falls through to
// a remote GET; a verified remote hit is written through to L1 so it is
// served locally from then on. Every Put publishes to the remote store
// after the local write, so any worker's results warm every peer. The
// remote tier inherits the robustness contract: a missing, corrupt,
// truncated, or fingerprint-mismatched remote entry is a silent miss, and
// transient HTTP failures are retried with jittered backoff
// (internal/httputil) before being absorbed as misses.
//
// # Robustness
//
// Entries are written atomically (tmp file + fsync + rename into place),
// so a crashed or concurrent writer never leaves a half-written entry
// behind — the fsync matters: rename is only atomic for data that reached
// the disk, and a torn write replayed across a power cut must decode as a
// miss, not as garbage. A missing, truncated, corrupt, or
// fingerprint-mismatched entry is a silent miss — the caller just
// recomputes; the cache never surfaces an error.
//
// # Configuration
//
// The CUBIE_CACHE environment variable controls the cache (FromEnv):
// unset or empty uses the per-user default directory, "off" (also "0",
// "false", "no") disables caching entirely, and any other value is used as
// the cache directory. CUBIE_REMOTE_CACHE names a peer daemon
// ("host:port" or an http:// base URL) to attach as the remote tier; it
// is ignored when the local cache is off, because L1 is what makes remote
// hits cheap and remote publishes crash-safe. All Cache methods are
// nil-receiver safe: a nil *Cache reads nothing and writes nothing, so
// call sites need no guards.
//
// Hits, misses, corrupt entries, writes, and byte volumes are counted in
// internal/metrics, and every disk access is wrapped in an
// internal/trace host span (docs/OBSERVABILITY.md).
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Env is the environment variable that selects the cache directory or
// disables the cache ("off").
const Env = "CUBIE_CACHE"

// EnvRemote is the environment variable naming the remote cache store — a
// peer daemon's base URL or host:port — attached as the L2 tier by
// FromEnv.
const EnvRemote = "CUBIE_REMOTE_CACHE"

// KindResult is the entry kind under which the harness stores
// workload.Result values.
const KindResult = "result"

// KindReference is the entry kind for CPU-serial reference outputs (the
// Table 6 ground truth), stored as []float64. Only a Table 6 computation
// reads them; a warm campaign reads the KindAccuracy rows instead.
const KindReference = "reference"

// KindAccuracy is the entry kind for the Table 6 rows: each floating-point
// workload's error summary against its CPU-serial reference, stored as
// []accuracy.Row.
const KindAccuracy = "accuracy"

// KindFeatures is the entry kind for corpus feature matrices (the Figure 10
// PCA inputs), stored as [][]float64.
const KindFeatures = "features"

// KindAblation is the entry kind for the rows of the ablation studies that
// measure seeded datasets directly rather than through workload runs (DASP
// padding, BFS relabeling).
const KindAblation = "ablation"

// Cache metrics (see docs/OBSERVABILITY.md).
var (
	metHits = metrics.NewCounter("cubie_runcache_hits_total",
		"Run-cache lookups served from a valid on-disk entry.")
	metMisses = metrics.NewCounter("cubie_runcache_misses_total",
		"Run-cache lookups that found no usable entry (absent, corrupt, or fingerprint mismatch).")
	metCorrupt = metrics.NewCounter("cubie_runcache_corrupt_total",
		"Run-cache entries dropped because they failed to decode or their fingerprint/key did not match (counted as misses too).")
	metWrites = metrics.NewCounter("cubie_runcache_writes_total",
		"Run-cache entries written (atomic tmp+rename).")
	metWriteErrors = metrics.NewCounter("cubie_runcache_write_errors_total",
		"Run-cache writes abandoned on a marshal or filesystem error (the run still succeeds, uncached).")
	metReadBytes = metrics.NewCounter("cubie_runcache_read_bytes_total",
		"Bytes read from run-cache entry files.")
	metWrittenBytes = metrics.NewCounter("cubie_runcache_written_bytes_total",
		"Bytes written to run-cache entry files.")
)

// Cache is one cache directory bound to one fingerprint, with an optional
// remote store behind it. The zero value is not usable; nil is (as a
// disabled cache).
type Cache struct {
	dir    string
	fp     string
	remote *Remote // L2 tier; nil = local only
}

// envelope is the on-disk entry format. Fingerprint, kind, and key are
// stored redundantly with the (hashed) file name so Get can verify an
// entry really answers the question being asked.
type envelope struct {
	Fingerprint string          `json:"fingerprint"`
	Kind        string          `json:"kind"`
	Key         string          `json:"key"`
	Payload     json.RawMessage `json:"payload"`
}

// FromEnv opens the cache selected by CUBIE_CACHE and, when
// CUBIE_REMOTE_CACHE is set, attaches that peer store as the remote tier.
// It returns nil — a disabled cache — when the variable is "off" (or "0",
// "false", "no"), when the executable cannot be identified, or when the
// directory cannot be created.
func FromEnv() *Cache {
	dir := os.Getenv(Env)
	switch strings.ToLower(dir) {
	case "off", "0", "false", "no":
		return nil
	case "":
		dir = DefaultDir()
	}
	c, err := Open(dir)
	if err != nil {
		return nil
	}
	if base := os.Getenv(EnvRemote); base != "" {
		c.AttachRemote(NewRemote(base))
	}
	return c
}

// DefaultDir returns the per-user default cache directory.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		base = os.TempDir()
	}
	return filepath.Join(base, "cubie", "runcache")
}

// Open creates (if needed) and returns the cache rooted at dir, bound to
// the process fingerprint. It fails, creating nothing, when the
// executable cannot be identified.
func Open(dir string) (*Cache, error) {
	fp := Fingerprint()
	if fp == "" {
		return nil, errNoFingerprint
	}
	return OpenWithFingerprint(dir, fp)
}

// OpenWithFingerprint is Open with an explicit fingerprint — tests use it
// to simulate a code change without rebuilding.
func OpenWithFingerprint(dir, fp string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	return &Cache{dir: dir, fp: fp}, nil
}

// Dir returns the cache directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// EntryName returns the content-addressed entry file name for
// (fingerprint, kind, key): hash(fingerprint | kind | key), so distinct
// code versions never collide and a fingerprint change is an automatic
// miss. The same name addresses the entry in every tier — it is the {key}
// path element of the daemon's GET/PUT /api/v1/cache/{key} endpoints.
func EntryName(fp, kind, key string) string {
	sum := sha256.Sum256([]byte(fp + "\x00" + kind + "\x00" + key))
	return kind + "-" + hex.EncodeToString(sum[:12]) + ".json"
}

// entryNameRe is the shape of every name EntryName can produce. The
// daemon's cache store validates inbound names against it so a request
// path can never escape the cache directory or name a non-entry file.
var entryNameRe = regexp.MustCompile(`^[a-z]+-[0-9a-f]{24}\.json$`)

// ValidEntryName reports whether name is a well-formed entry file name.
func ValidEntryName(name string) bool {
	return entryNameRe.MatchString(name)
}

// path returns the local entry file for (kind, key).
func (c *Cache) path(kind, key string) string {
	return filepath.Join(c.dir, EntryName(c.fp, kind, key))
}

// Has reports whether an entry file exists for (kind, key) without reading
// it. It is a cheap scheduling heuristic — the entry may still turn out
// corrupt on Get — used by the harness planner to decide whether a memo's
// input runs must join the plan.
func (c *Cache) Has(kind, key string) bool {
	if c == nil {
		return false
	}
	_, err := os.Stat(c.path(kind, key))
	return err == nil
}

// Get looks up (kind, key) in the local tier first, then the remote store,
// and decodes the payload into v (a pointer). Every failure mode — absent
// file, truncated or corrupt entry, fingerprint or key mismatch, in either
// tier — is a silent miss; a verified remote hit is written through to the
// local tier. cubie_runcache_misses_total counts overall misses (no tier
// could answer), matching its pre-remote meaning.
func (c *Cache) Get(kind, key string, v any) bool {
	if c == nil {
		return false
	}
	end := trace.HostSpan("runcache-get", kind+":"+key)
	defer end()
	name := EntryName(c.fp, kind, key)
	prefix := appendPrefix(nil, c.fp, kind, key)
	if data, err := os.ReadFile(filepath.Join(c.dir, name)); err == nil {
		metReadBytes.Add(uint64(len(data)))
		if decodeEntry(data, prefix, v) {
			metHits.Inc()
			return true
		}
		metCorrupt.Inc()
		// Fall through: a good peer copy can heal a locally corrupt entry.
	}
	if data, ok := c.remoteGet(name); ok {
		if decodeEntry(data, prefix, v) {
			metRemoteHits.Inc()
			// Write-through so the next lookup is local. The remote bytes
			// were verified above, so L1 only ever gains valid entries.
			if err := c.writeEntryFile(name, data); err == nil {
				metWrites.Inc()
				metWrittenBytes.Add(uint64(len(data)))
			} else {
				metWriteErrors.Inc()
			}
			return true
		}
		// The store handed us bytes that do not answer (kind, key) for our
		// fingerprint: corrupt, truncated, or a mismatched entry. Silent miss.
		metCorrupt.Inc()
		metRemoteMisses.Inc()
	}
	metMisses.Inc()
	return false
}

// Put stores v under (kind, key), atomically, then publishes the entry to
// the remote store when one is attached. Errors are absorbed (counted,
// not returned) — a cache that cannot write degrades to a cache that
// misses, and an unreachable remote store degrades to a local-only cache.
func (c *Cache) Put(kind, key string, v any) {
	if c == nil {
		return
	}
	end := trace.HostSpan("runcache-put", kind+":"+key)
	defer end()
	data, err := encodeEntry(c.fp, kind, key, v)
	if err != nil {
		metWriteErrors.Inc()
		return
	}
	name := EntryName(c.fp, kind, key)
	if err := c.writeEntryFile(name, data); err != nil {
		metWriteErrors.Inc()
		return
	}
	metWrites.Inc()
	metWrittenBytes.Add(uint64(len(data)))
	c.remotePut(name, data)
}

// writeEntryFile lands one complete entry at dir/name atomically: temp
// file, write, fsync, rename. The fsync before the rename is what makes
// the rename a real commit point — without it a power cut can replay a
// renamed-but-torn entry, which would then have to be caught (and is, by
// decodeEntry) rather than prevented.
func (c *Cache) writeEntryFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		if serr != nil {
			return serr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadEntry returns the raw bytes of one locally stored entry by its
// content-addressed name — the daemon's GET /api/v1/cache/{key} read path.
// The name is validated; the error is os.IsNotExist-able for absent
// entries.
func (c *Cache) ReadEntry(name string) ([]byte, error) {
	if c == nil {
		return nil, os.ErrNotExist
	}
	if !ValidEntryName(name) {
		return nil, fmt.Errorf("%w: invalid entry name %q", errBadEntry, name)
	}
	data, err := os.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		return nil, err
	}
	metReadBytes.Add(uint64(len(data)))
	return data, nil
}

// errBadEntry marks WriteEntry/ReadEntry failures caused by the caller's
// bytes or name, as opposed to local I/O trouble. IsBadEntry exposes it.
var errBadEntry = fmt.Errorf("runcache: bad entry")

// IsBadEntry reports whether err means the submitted entry itself was
// invalid (bad name, not an envelope, or body/name address mismatch) —
// the daemon maps these to 400 and real storage errors to 500.
func IsBadEntry(err error) bool {
	return errors.Is(err, errBadEntry)
}

// WriteEntry stores one wire-format entry under its content-addressed
// name — the daemon's PUT /api/v1/cache/{key} write path. The body must
// be a complete envelope whose computed address matches name: the store
// re-derives EntryName from the envelope's own fingerprint/kind/key and
// refuses a mismatch, so a confused or malicious writer can never park
// bytes under someone else's address. The store does NOT require the
// envelope's fingerprint to match this process's — a daemon serves
// entries for every code version its peers run; readers verify the
// fingerprint on Get.
func (c *Cache) WriteEntry(name string, data []byte) error {
	if c == nil {
		return fmt.Errorf("runcache: no cache attached")
	}
	if !ValidEntryName(name) {
		return fmt.Errorf("%w: invalid entry name %q", errBadEntry, name)
	}
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return fmt.Errorf("%w: not an entry envelope: %v", errBadEntry, err)
	}
	if EntryName(e.Fingerprint, e.Kind, e.Key) != name {
		return fmt.Errorf("%w: body addresses %s, not %s",
			errBadEntry, EntryName(e.Fingerprint, e.Kind, e.Key), name)
	}
	if err := c.writeEntryFile(name, data); err != nil {
		metWriteErrors.Inc()
		return err
	}
	metWrites.Inc()
	metWrittenBytes.Add(uint64(len(data)))
	return nil
}

// ResultKey renders the canonical key of one workload execution.
func ResultKey(workloadName, caseName, variant string) string {
	return workloadName + "|" + caseName + "|" + variant
}

// GetResult looks up a cached workload execution.
func (c *Cache) GetResult(workloadName, caseName, variant string) (*workload.Result, bool) {
	var s storedResult
	if !c.Get(KindResult, ResultKey(workloadName, caseName, variant), &s) {
		return nil, false
	}
	return &workload.Result{
		Profile:    s.Profile,
		Work:       s.Work,
		MetricName: s.MetricName,
		Output:     s.Output,
		InputUtil:  s.InputUtil,
		OutputUtil: s.OutputUtil,
	}, true
}

// PutResult stores one workload execution.
func (c *Cache) PutResult(workloadName, caseName, variant string, res *workload.Result) {
	if res == nil {
		return
	}
	c.Put(KindResult, ResultKey(workloadName, caseName, variant), storedResult{
		resultHeader: resultHeader{
			Profile:    res.Profile,
			Work:       res.Work,
			MetricName: res.MetricName,
			InputUtil:  res.InputUtil,
			OutputUtil: res.OutputUtil,
		},
		Output: res.Output,
	})
}

// GetFloats looks up a []float64 entry (the reference outputs) stored in
// the base64 floats encoding.
func (c *Cache) GetFloats(kind, key string) ([]float64, bool) {
	var f floats
	if !c.Get(kind, key, &f) {
		return nil, false
	}
	return f, true
}

// PutFloats stores a []float64 entry in the base64 floats encoding.
func (c *Cache) PutFloats(kind, key string, vs []float64) {
	c.Put(kind, key, floats(vs))
}
