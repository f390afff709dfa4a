// Package schedule holds the one scheduling mode the cascade has: Off,
// the fixed cheapest-to-most-precise tier order. The constant survives
// because the analysis-cache key fingerprint writes "schedule=off", and
// that line must stay byte-identical so existing cache entries (and the
// benchmark's mirror of the fingerprint) keep matching.
package schedule

// Off names the fixed tier cascade in the cache-key fingerprint.
const Off = "off"
