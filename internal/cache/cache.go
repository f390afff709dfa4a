// Package cache is the content-addressed on-disk store of per-procedure
// analysis results: reports, invariant certificates, and statistics, keyed
// by structural hashes of the analysis input plus a fingerprint of the
// run-relevant configuration.
//
// An entry is two files under one base name:
//
//	<proc>-<body16>-<conf16>-<env16>.rep    report payload
//	<proc>-<body16>-<conf16>-<env16>.cert   certificate payload (optional)
//
// where body16/conf16/env16 are the leading 16 hex digits of the key's
// three SHA-256 components (the full hashes are stored inside the payload
// and re-verified on every read, so a truncated-prefix collision can
// produce a near-miss but never a wrong result). Each file starts with a
// one-line header
//
//	cssv-cache <version> <sha256-of-payload>
//
// followed by a deterministic JSON payload; the report additionally pins
// the digest of its certificate file, so the two halves of an entry cannot
// be mixed and matched. Any integrity failure — truncation, bit rot,
// manual tampering, version skew — surfaces as an error from Get,
// Candidates, or Certificates; the store never repairs or guesses.
//
// Trust argument (DESIGN.md §11): a cache entry is advice, never
// authority. An exact hit (all three hashes equal) replays a result the
// analyzer, which is deterministic per input, provably produced for this
// exact input — guarded by the digests above, and optionally re-verified
// end to end (certificate re-check plus assert accounting) under the
// driver's paranoid mode. A revalidation hit (body and configuration
// equal, environment changed) is only accepted after the driver rebuilds
// the front end, confirms the generated integer program is identical
// (encoded form, source positions included), and re-proves every stored
// certificate with the independent Fourier–Motzkin checker — no fixpoint
// runs, and nothing unproven is reused.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/certify"
)

// FormatVersion is the on-disk format generation; it participates in the
// file header, so a format change invalidates (rather than misreads) old
// entries. Format 2 stores linear expressions and constraints as exact
// text (codec.go) instead of nested JSON objects.
const FormatVersion = 2

const magic = "cssv-cache"

// Key identifies one cache entry: the procedure name plus three SHA-256
// hex hashes — the contract-stripped body, the configuration fingerprint,
// and the textual environment (every other declaration, the procedure's
// own contract, the string table). The driver derives them; the store
// only requires that they are full lowercase hex digests.
type Key struct {
	Proc string
	// Body hashes the analyzed procedure's declaration with its contract
	// stripped: same hash, same body.
	Body string
	// Conf fingerprints the result-relevant configuration (target, domain,
	// cascade tiers, translation options, contract mode, ...).
	Conf string
	// Env hashes everything else the result depends on: the other
	// declarations (including the libc contract prelude), the procedure's
	// own contract, and the string-literal table.
	Env string
}

const prefixLen = 16

// base is the entry's file base name.
func (k Key) base() string {
	return fmt.Sprintf("%s-%s-%s-%s", sanitize(k.Proc),
		prefix(k.Body), prefix(k.Conf), prefix(k.Env))
}

func prefix(h string) string {
	if len(h) < prefixLen {
		return h
	}
	return h[:prefixLen]
}

// sanitize keeps file names portable; procedure names are C identifiers,
// so this is defensive only (full names are verified inside the payload).
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}

// Entry is the report payload of one cache entry.
type Entry struct {
	Proc     string `json:"proc"`
	BodyHash string `json:"body_hash"`
	ConfHash string `json:"conf_hash"`
	EnvHash  string `json:"env_hash"`
	// Report is the cached per-procedure result. Its IP field doubles as
	// the revalidation anchor: the driver re-encodes a freshly generated
	// integer program (positions included) and compares the two encodings
	// byte for byte before trusting anything else in the entry.
	Report ProcReport `json:"report"`
	// NumCerts and CertDigest describe the companion .cert file; a
	// digest mismatch rejects the pair. Empty digest means no
	// certificate file was written.
	NumCerts   int    `json:"num_certs"`
	CertDigest string `json:"cert_digest,omitempty"`
}

// Store is an on-disk cache rooted at one directory. All methods are safe
// for concurrent use by independent processes in the usual
// write-temp-then-rename sense; readers never observe partial files.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the entry for an exact key, or (nil, nil) when absent. A
// present-but-unusable entry (corrupt header, digest mismatch, payload
// hashes not matching the key) is an error, so the caller can count and
// report it before falling back to analysis.
func (s *Store) Get(k Key) (*Entry, error) {
	path := filepath.Join(s.dir, k.base()+".rep")
	e, err := s.readEntry(path)
	if e == nil || err != nil {
		return nil, err
	}
	if e.Proc != k.Proc || e.BodyHash != k.Body || e.ConfHash != k.Conf || e.EnvHash != k.Env {
		// A 16-hex-digit prefix collision: the entry is some other input's.
		return nil, nil
	}
	return e, nil
}

// Candidates returns, sorted by file name, every decodable entry with the
// same procedure, body hash, and configuration fingerprint but a different
// environment hash — the revalidation candidates. Corrupt candidate files
// are returned as errors alongside the good entries. The file named by the
// notEnv key itself is skipped unread: Get reads that one, and reports it
// when it is unusable. An entry whose environment hash only shares that
// key's 64-bit prefix is skipped with it, which costs a re-analysis.
func (s *Store) Candidates(proc, body, conf, notEnv string) ([]*Entry, []error) {
	pre := fmt.Sprintf("%s-%s-%s-", sanitize(proc), prefix(body), prefix(conf))
	own := pre + prefix(notEnv) + ".rep"
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, []error{fmt.Errorf("cache: %w", err)}
	}
	var names []string
	for _, de := range des {
		name := de.Name()
		if name != own && strings.HasPrefix(name, pre) && strings.HasSuffix(name, ".rep") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []*Entry
	var errs []error
	for _, name := range names {
		e, err := s.readEntry(filepath.Join(s.dir, name))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if e == nil {
			continue // raced with a writer's rename; treat as absent
		}
		if e.Proc != proc || e.BodyHash != body || e.ConfHash != conf || e.EnvHash == notEnv {
			continue
		}
		out = append(out, e)
	}
	return out, errs
}

// Certificates reads and decodes the certificate batch of an entry,
// verifying the digest binding recorded in the report half.
func (s *Store) Certificates(e *Entry) ([]*certify.Certificate, error) {
	if e.CertDigest == "" {
		if e.NumCerts != 0 {
			return nil, fmt.Errorf("cache: entry %s claims %d certificates but has no digest", e.Proc, e.NumCerts)
		}
		return nil, nil
	}
	payload, err := s.certPayload(e)
	if err != nil {
		return nil, err
	}
	var batch CertBatch
	if err := json.Unmarshal(payload, &batch); err != nil {
		return nil, fmt.Errorf("cache: certificate file for %s: %w", e.Proc, err)
	}
	certs, err := DecodeCertificates(&batch)
	if err != nil {
		return nil, err
	}
	if len(certs) != e.NumCerts {
		return nil, fmt.Errorf("cache: entry %s pins %d certificates, file has %d", e.Proc, e.NumCerts, len(certs))
	}
	return certs, nil
}

// certPayload reads the certificate file of an entry that pins one and
// checks it against the pinned digest.
func (s *Store) certPayload(e *Entry) ([]byte, error) {
	k := Key{Proc: e.Proc, Body: e.BodyHash, Conf: e.ConfHash, Env: e.EnvHash}
	payload, err := readPayload(filepath.Join(s.dir, k.base()+".cert"))
	if err != nil {
		return nil, err
	}
	if payload == nil {
		return nil, fmt.Errorf("cache: certificate file missing for %s", e.Proc)
	}
	if digest(payload) != e.CertDigest {
		return nil, fmt.Errorf("cache: certificate file for %s does not match the digest its report pinned", e.Proc)
	}
	return payload, nil
}

// Put writes an entry and its certificates under the key. The entry's
// hash fields, NumCerts, and CertDigest are filled in from k and certs.
// Writes are temp-file-plus-rename, certificate half first, so a reader
// that sees the report always finds the matching certificates.
func (s *Store) Put(k Key, e *Entry, certs []*certify.Certificate) error {
	var payload []byte
	if len(certs) > 0 {
		var err error
		if payload, err = json.Marshal(EncodeCertificates(certs)); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
	}
	return s.write(k, e, len(certs), payload)
}

// Refresh is Put for a revalidated entry whose certificates were just read
// from src and re-proved: src's certificate file is copied byte for byte
// instead of re-encoded, since re-encoding could only reproduce it. The
// file is read again and held to the digest src pinned, so the bytes
// written are the bytes that were verified.
func (s *Store) Refresh(k Key, e *Entry, src *Entry) error {
	var payload []byte
	if src.CertDigest != "" {
		var err error
		if payload, err = s.certPayload(src); err != nil {
			return err
		}
	}
	return s.write(k, e, src.NumCerts, payload)
}

// write fills e's hash fields and certificate binding and writes both
// halves of the entry, the certificate half (if any) first. When the
// report half fails, the certificate half is removed again, so a failed
// store leaves no file behind.
func (s *Store) write(k Key, e *Entry, numCerts int, certPayload []byte) error {
	e.Proc = k.Proc
	e.BodyHash = k.Body
	e.ConfHash = k.Conf
	e.EnvHash = k.Env
	e.NumCerts = numCerts
	e.CertDigest = ""
	if certPayload != nil {
		e.CertDigest = digest(certPayload)
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	base := k.base()
	if certPayload != nil {
		if err := s.writeFile(base+".cert", certPayload); err != nil {
			return err
		}
	}
	if err := s.writeFile(base+".rep", payload); err != nil {
		if certPayload != nil {
			// The report's error is the one to return; a certificate that
			// cannot be removed is an orphan no report's digest names.
			_ = os.Remove(filepath.Join(s.dir, base+".cert"))
		}
		return err
	}
	return nil
}

// readEntry reads and validates one report file; (nil, nil) when absent.
func (s *Store) readEntry(path string) (*Entry, error) {
	payload, err := readPayload(path)
	if payload == nil || err != nil {
		return nil, err
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("cache: %s: %w", path, err)
	}
	if !validHex(e.BodyHash) || !validHex(e.ConfHash) || !validHex(e.EnvHash) {
		return nil, fmt.Errorf("cache: %s: malformed hash fields", path)
	}
	return &e, nil
}

func validHex(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(h)
	return err == nil
}

// readPayload reads a cache file, checks the header line, and returns the
// digest-verified payload; (nil, nil) when the file does not exist.
func readPayload(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("cache: %w", err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("cache: %s: truncated header", path)
	}
	header := string(data[:nl])
	payload := data[nl+1:]
	var version int
	var sum string
	if n, err := fmt.Sscanf(header, magic+" %d %s", &version, &sum); n != 2 || err != nil {
		return nil, fmt.Errorf("cache: %s: malformed header %q", path, header)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("cache: %s: format version %d, want %d", path, version, FormatVersion)
	}
	if digest(payload) != sum {
		return nil, fmt.Errorf("cache: %s: payload does not match its digest (corrupt or tampered)", path)
	}
	return payload, nil
}

func (s *Store) writeFile(name string, payload []byte) error {
	tmp, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	defer os.Remove(tmp.Name())
	header := fmt.Sprintf("%s %d %s\n", magic, FormatVersion, digest(payload))
	if _, err := tmp.WriteString(header); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}

func digest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
