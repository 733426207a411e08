package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"dagguise/internal/ckpt"
	"dagguise/internal/config"
	"dagguise/internal/workload"
)

// runCacheVersion guards the cache schema.
const runCacheVersion = 1

// RunCache is dagsim's campaign-level resume store: every completed
// (figure, app, scheme, warmup, window) measurement is persisted as soon
// as it finishes, so an interrupted figure sweep rerun with the same
// options skips straight to the first unmeasured configuration.
// Simulations are deterministic, so a cached entry is exactly what
// rerunning the simulation would produce.
// RunCache is safe for concurrent use: parallel figure sweeps (Options.
// Workers > 1) share one cache.
type RunCache struct {
	mu      sync.Mutex
	path    string
	entries map[string]SchemeIPCs
}

type runCacheFile struct {
	Version int                   `json:"version"`
	Entries map[string]SchemeIPCs `json:"entries"`
}

// OpenRunCache loads the cache at path, or initialises an empty one when
// the file does not exist yet.
func OpenRunCache(path string) (*RunCache, error) {
	c := &RunCache{path: path, entries: make(map[string]SchemeIPCs)}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("eval: read run cache: %w", err)
	}
	var f runCacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("eval: corrupt run cache %s: %w", path, err)
	}
	if f.Version != runCacheVersion {
		return nil, fmt.Errorf("eval: run cache %s is v%d, this build reads v%d", path, f.Version, runCacheVersion)
	}
	if f.Entries != nil {
		c.entries = f.Entries
	}
	return c, nil
}

// figureSchemes are the schemes every figure row measures.
var figureSchemes = []config.Scheme{config.Insecure, config.FSBTA, config.DAGguise}

// cacheKey names one measurement in the cache: the figure (9 or 10), the
// row's app, the scheme, and opts' warmup and window.
func cacheKey(figure int, app string, scheme config.Scheme, opts Options) string {
	return fmt.Sprintf("fig%d/%s/%s/warmup%d/window%d", figure, app, scheme, opts.Warmup, opts.Window)
}

// Cached counts the measurements a sweep of the figure (9 or 10) under
// opts would take from the cache instead of simulating: those of its
// apps and schemes at its warmup and window. Entries from other figures,
// apps or windows are not counted.
func (c *RunCache) Cached(figure int, opts Options) int {
	n := 0
	for _, app := range opts.apps() {
		for _, scheme := range figureSchemes {
			if _, ok := c.get(cacheKey(figure, app, scheme, opts)); ok {
				n++
			}
		}
	}
	return n
}

func (c *RunCache) get(key string) (SchemeIPCs, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	return v, ok
}

// put records a completed measurement and persists the cache atomically, so
// a kill between measurements never loses finished work.
func (c *RunCache) put(key string, v SchemeIPCs) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = v
	data, err := json.MarshalIndent(runCacheFile{Version: runCacheVersion, Entries: c.entries}, "", "  ")
	if err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(c.path, append(data, '\n'))
}

// apps returns the figure rows' apps: opts.Apps, or every workload.
func (o Options) apps() []string {
	if len(o.Apps) == 0 {
		return workload.Names()
	}
	return o.Apps
}

// ctxOf returns the Options context, defaulting to Background.
func (o Options) ctxOf() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}
