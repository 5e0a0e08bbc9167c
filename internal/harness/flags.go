package harness

import (
	"fmt"
	"strconv"
	"strings"
)

// CLI flag parsing shared by atmd and atmbench for the THT budget
// knobs (the harness already hosts the recover-policy flag parser, so
// the front-ends stay in lockstep).

// ParseByteSize parses a byte-count flag value: a plain integer, or
// one with a k/m/g suffix (binary units, case-insensitive). The empty
// string is 0 (unbounded).
func ParseByteSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
	case 'm', 'M':
		mult = 1 << 20
	case 'g', 'G':
		mult = 1 << 30
	}
	num := s
	if mult != 1 {
		num = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 67108864, 64m, 2g)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative byte size %q", s)
	}
	if mult != 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}
