package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"

	"politewifi/internal/lint/load"
)

// FactVersion is baked into every fact-cache key. Bump it whenever
// the purity analysis or the fact wire format changes semantics, so
// stale caches invalidate themselves instead of serving facts the
// current analyzers would not have computed.
const FactVersion = "politevet-facts-v1"

// factCache is a content-addressed store of encoded fact sets. Keys
// are pure functions of FactVersion, the package's source bytes, and
// its dependencies' keys, so hits never need validation and a cold
// miss is decidable before any type-checking happens.
type factCache struct {
	dir string
}

// openFactCache resolves a -factcache spec: "" means the per-user
// default (os.UserCacheDir()/politevet), "off" disables caching, and
// anything else is used as the cache directory. A nil cache is valid
// and misses everything.
func openFactCache(spec string) *factCache {
	switch spec {
	case "off":
		return nil
	case "":
		base, err := os.UserCacheDir()
		if err != nil {
			return nil
		}
		spec = filepath.Join(base, "politevet")
	}
	if err := os.MkdirAll(spec, 0o777); err != nil {
		return nil
	}
	return &factCache{dir: spec}
}

func (c *factCache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:]+".facts")
}

func (c *factCache) get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

func (c *factCache) put(key string, data []byte) {
	if c == nil {
		return
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
		return
	}
	// Write-rename so concurrent runs never observe torn files.
	tmp, err := os.CreateTemp(filepath.Dir(p), "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err == nil && tmp.Close() == nil {
		os.Rename(name, p) //nolint:errcheck — cache writes are best-effort
		return
	}
	tmp.Close()
	os.Remove(name)
}

// factKey derives the cache key for one plain package: a hash over
// the fact version, the import path, every source file's content
// hash, and the keys of its in-module dependencies (already computed
// — the caller walks in topological order).
func factKey(u *load.Unit, path string, deps []string, depKeys map[string]string) (string, error) {
	h := sha256.New()
	h.Write([]byte(FactVersion + "\x00" + path + "\x00"))
	files := append([]string(nil), u.GoFiles...)
	sort.Strings(files)
	for _, f := range files {
		fh, err := u.FileHash(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(f + "\x00" + fh + "\x00"))
	}
	for _, d := range deps {
		h.Write([]byte(d + "\x00" + depKeys[d] + "\x00"))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
