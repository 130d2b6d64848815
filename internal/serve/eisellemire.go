// eiselLemire64 below is ported from the Go standard library's
// strconv/eisel_lemire.go, under this license:
//
// Copyright 2020 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above copyright
//     notice, this list of conditions and the following disclaimer in the
//     documentation and/or other materials provided with the distribution.
//   - Neither the name of Google LLC nor the names of its contributors may
//     be used to endorse or promote products derived from this software
//     without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package serve

// The Eisel-Lemire algorithm is described by Lemire, "Number Parsing at a
// Gigabyte per Second" (https://arxiv.org/abs/2101.11408), and discussed
// at https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose
// sections the terse comments in eiselLemire64 name. strconv.ParseFloat
// runs this same function on the same inputs, so where it answers, the
// answer is strconv's bit for bit.

import (
	"math"
	"math/big"
	"math/bits"
)

// pow10Table{Min,Max}Exp10 bound the powers of ten in pow10Table, both
// inclusive. strconv's table spans 1e-348…1e347; latencies need far less,
// and scanNumber leaves exponents outside this range to strconv.
const (
	pow10TableMinExp10 = -64
	pow10TableMaxExp10 = +64
)

// pow10Table holds, for each power of ten 10^e in range, the top 128 bits
// of its binary expansion, rounded down, as {low 64 bits, high 64 bits}:
// the rows of strconv's detailedPowersOfTen for the same exponents. The
// binary exponent is implied by eiselLemire64's linear expression.
var pow10Table = func() (t [pow10TableMaxExp10 - pow10TableMinExp10 + 1][2]uint64) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for e := pow10TableMinExp10; e <= pow10TableMaxExp10; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		switch l := p.BitLen(); {
		case e < 0:
			// 2^(127+l) / 10^-e lies in (2^127, 2^128): no power of ten
			// above 1 is a power of two.
			m.Quo(m.Lsh(big.NewInt(1), uint(127+l)), p)
		case l <= 128:
			m.Lsh(p, uint(128-l))
		default:
			m.Rsh(p, uint(l-128))
		}
		i := e - pow10TableMinExp10
		t[i][0] = new(big.Int).And(m, mask).Uint64()
		t[i][1] = m.Rsh(m, 64).Uint64()
	}
	return t
}()

// eiselLemire64 returns man × 10^exp10, negated if neg, correctly
// rounded, or ok false when it cannot decide the rounding or exp10 is
// outside pow10Table. It is strconv's function of the same name, reading
// pow10Table for strconv's table.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10TableMinExp10 || pow10TableMaxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &pow10Table[exp10-pow10TableMinExp10]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// strconv checks here for subnormal and Inf/NaN results. None can
	// arise: within pow10Table's range, man × 10^exp10 lies between 1e-64
	// and 1e83, normal float64s all.
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
