package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// AnonymousTenant is the tenant name used when the server runs without
// an auth config (open mode): every request belongs to it and no quota
// applies.
const AnonymousTenant = "anonymous"

// Tenant is one API tenant: a bearer key plus admission quotas layered
// on the server-wide bounded queue. Zero-valued quotas are unlimited.
type Tenant struct {
	// Name labels the tenant in job records, catalog entries and
	// metrics.
	Name string `json:"name"`
	// Key is the bearer API key (Authorization: Bearer <key> or
	// X-API-Key: <key>).
	Key string `json:"key"`
	// MaxActiveJobs caps the tenant's queued+running jobs; submissions
	// beyond it get 429 with Retry-After. 0 = unlimited.
	MaxActiveJobs int `json:"max_active_jobs,omitempty"`
	// MaxCatalogBytes caps the total raw bytes of the tenant's catalog
	// datasets; uploads beyond it get 429. 0 = unlimited.
	MaxCatalogBytes int64 `json:"max_catalog_bytes,omitempty"`
}

// Auth is the loaded tenant set. A nil *Auth means open mode: no
// authentication, one implicit anonymous tenant with no quotas.
type Auth struct {
	byKey map[string]*Tenant
}

// authFile is the on-disk shape of the -auth-config file.
type authFile struct {
	Tenants []*Tenant `json:"tenants"`
}

// LoadAuth reads a tenant config file: JSON {"tenants": [{"name", "key",
// "max_active_jobs", "max_catalog_bytes"}, ...]}. Names and keys must be
// non-empty and unique; quotas must be non-negative.
func LoadAuth(path string) (*Auth, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: reading auth config: %w", err)
	}
	var f authFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("server: parsing auth config %s: %w", path, err)
	}
	return NewAuth(f.Tenants)
}

// NewAuth validates and indexes a tenant set.
func NewAuth(tenants []*Tenant) (*Auth, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("server: auth config has no tenants")
	}
	a := &Auth{byKey: make(map[string]*Tenant)}
	names := make(map[string]bool)
	for i, t := range tenants {
		switch {
		case t == nil:
			return nil, fmt.Errorf("server: auth config tenant %d is null", i)
		case t.Name == "" || t.Key == "":
			return nil, fmt.Errorf("server: auth config tenant %d needs both name and key", i)
		case t.Name == AnonymousTenant:
			return nil, fmt.Errorf("server: tenant name %q is reserved", AnonymousTenant)
		case t.MaxActiveJobs < 0 || t.MaxCatalogBytes < 0:
			return nil, fmt.Errorf("server: tenant %q quotas must be >= 0", t.Name)
		case names[t.Name]:
			return nil, fmt.Errorf("server: duplicate tenant name %q", t.Name)
		case a.byKey[t.Key] != nil:
			return nil, fmt.Errorf("server: duplicate tenant key (tenant %q)", t.Name)
		}
		a.byKey[t.Key] = t
		names[t.Name] = true
	}
	return a, nil
}

// Lookup resolves an API key to its tenant.
func (a *Auth) Lookup(key string) (*Tenant, bool) {
	t, ok := a.byKey[key]
	return t, ok
}

// requestKey extracts the API key of r: "Authorization: Bearer <key>"
// wins, then "X-API-Key: <key>".
func requestKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
		return h // wrong scheme: treat the raw value as a (failing) key
	}
	return r.Header.Get("X-API-Key")
}

// QuotaError is an admission-control rejection: the request is valid
// but the tenant (or the server) is at capacity right now. It renders
// as 429 with a Retry-After header.
type QuotaError struct {
	// Msg describes which quota rejected the request.
	Msg string
	// RetryAfter is the suggested client back-off in seconds.
	RetryAfter int
}

// Error implements error.
func (e *QuotaError) Error() string { return e.Msg }

// writeQuotaError renders e as 429 + Retry-After.
func writeQuotaError(w http.ResponseWriter, e *QuotaError) {
	retry := e.RetryAfter
	if retry <= 0 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, e)
}
