package server

// Daemon configuration, in the soci-snapshotter style: a defaults struct,
// optionally overlaid by a JSON config file, then by CUBIE_* environment
// variables, then by explicit CLI flags (cmd/cubie applies those last).
// Each field carries its config-file key (`json` tag) and its environment
// variable (`env` tag); cmd/docscheck cross-references both against
// docs/SERVE.md, so the documentation cannot drift from this struct.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"time"
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("30s", "1m30s") in JSON config files and environment variables.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"30s\": %w", err)
	}
	return d.parse(s)
}

func (d *Duration) parse(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Config is the complete daemon configuration.
type Config struct {
	// Addr is the listen address. Port 0 picks a free port; the bound
	// address is reported by Server.Addr and written to AddrFile.
	Addr string `json:"addr" env:"CUBIE_ADDR"`

	// AddrFile, when non-empty, receives the actually-bound listen
	// address once the daemon is ready — the handshake `make serve-smoke`
	// and scripts use with port 0.
	AddrFile string `json:"addr_file" env:"CUBIE_ADDR_FILE"`

	// MaxInflightRuns bounds the run-executing requests (single runs,
	// campaigns, cold figure renders) admitted concurrently. Requests
	// beyond the bound receive 429 with a Retry-After header.
	MaxInflightRuns int `json:"max_inflight_runs" env:"CUBIE_MAX_INFLIGHT_RUNS"`

	// RetryAfter is the Retry-After hint attached to 429 responses.
	RetryAfter Duration `json:"retry_after" env:"CUBIE_RETRY_AFTER"`

	// RequestTimeout bounds one run/figure request. A request that
	// exceeds it receives 504; its execution continues in the background
	// (results are cached, so a retry joins or reuses it).
	RequestTimeout Duration `json:"request_timeout" env:"CUBIE_REQUEST_TIMEOUT"`

	// DrainTimeout bounds the graceful shutdown: how long SIGTERM waits
	// for in-flight requests and background campaign work to finish.
	DrainTimeout Duration `json:"drain_timeout" env:"CUBIE_DRAIN_TIMEOUT"`
}

// Defaults returns the built-in configuration: loopback-only listener,
// one admitted run-executing request per core (at least 2), generous
// timeouts sized to a cold whole-campaign render.
func Defaults() Config {
	inflight := runtime.GOMAXPROCS(0)
	if inflight < 2 {
		inflight = 2
	}
	return Config{
		Addr:            "127.0.0.1:8373",
		MaxInflightRuns: inflight,
		RetryAfter:      Duration(2 * time.Second),
		RequestTimeout:  Duration(5 * time.Minute),
		DrainTimeout:    Duration(30 * time.Second),
	}
}

// LoadFile overlays a JSON config file onto c. Unknown keys are rejected,
// so a typoed key fails loudly instead of silently keeping the default.
func (c *Config) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("server config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return fmt.Errorf("server config %s: %w", path, err)
	}
	return nil
}

// ApplyEnv overlays the CUBIE_* environment variables declared in the
// struct's env tags onto c. Unset and empty variables leave the current
// value; a malformed value is an error naming the variable.
func (c *Config) ApplyEnv() error {
	rv := reflect.ValueOf(c).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Tag.Get("env")
		if name == "" {
			continue
		}
		raw := os.Getenv(name)
		if raw == "" {
			continue
		}
		f := rv.Field(i)
		switch f.Interface().(type) {
		case string:
			f.SetString(raw)
		case int:
			n, err := strconv.Atoi(raw)
			if err != nil {
				return fmt.Errorf("server config: %s=%q: %w", name, raw, err)
			}
			f.SetInt(int64(n))
		case Duration:
			var d Duration
			if err := d.parse(raw); err != nil {
				return fmt.Errorf("server config: %s=%q: %w", name, raw, err)
			}
			f.Set(reflect.ValueOf(d))
		default:
			return fmt.Errorf("server config: unsupported env field type for %s", name)
		}
	}
	return nil
}

// Validate reports the first nonsensical setting.
func (c Config) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("server config: addr must not be empty")
	}
	if c.MaxInflightRuns < 1 {
		return fmt.Errorf("server config: max_inflight_runs must be >= 1 (have %d)", c.MaxInflightRuns)
	}
	if c.RequestTimeout <= 0 {
		return fmt.Errorf("server config: request_timeout must be positive")
	}
	if c.DrainTimeout <= 0 {
		return fmt.Errorf("server config: drain_timeout must be positive")
	}
	if c.RetryAfter <= 0 {
		return fmt.Errorf("server config: retry_after must be positive")
	}
	return nil
}

// retryAfterSeconds renders the Retry-After header value (at least 1).
func (c Config) retryAfterSeconds() string {
	s := int(time.Duration(c.RetryAfter).Round(time.Second) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}
