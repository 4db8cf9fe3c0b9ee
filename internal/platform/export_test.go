package platform

import "repro/internal/jsonscan"

// DecodeCanonical exposes the canonical decoder to the external tests,
// which check that the service's own request builders stay on it.
var DecodeCanonical = decodeCanonical

// maxWireTreeDepth is the deepest tree the canonical decoder reads: the
// envelope, the tree body and the roots array, then two JSON levels per
// tree level, all within jsonscan.MaxDepth.
const maxWireTreeDepth = (jsonscan.MaxDepth - 1) / 2
