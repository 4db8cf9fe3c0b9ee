package platform

// DecodeCanonical exposes the canonical decoder to the external tests,
// which check that the service's own request builders stay on it.
var DecodeCanonical = decodeCanonical
