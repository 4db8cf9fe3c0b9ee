package baseline

import (
	"fmt"
	"math/big"
)

// RateString renders a rational rate as "p/q (~x.xxx tasks/unit)".
func RateString(r *big.Rat) string {
	f, _ := r.Float64()
	return fmt.Sprintf("%s (~%.4f tasks/unit)", r.RatString(), f)
}
