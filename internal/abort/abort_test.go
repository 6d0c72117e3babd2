package abort

import (
	"errors"
	"fmt"
	"testing"
)

func TestCauseIsErrAborted(t *testing.T) {
	c := Causef(KindDeadline, "test.site", "parked %v", "3s")
	if !errors.Is(c, ErrAborted) {
		t.Fatalf("Cause does not match ErrAborted: %v", c)
	}
	if got := c.Error(); got == "" {
		t.Fatal("empty error string")
	}
}

func TestCauseDetailChain(t *testing.T) {
	base := errors.New("peer dead")
	c := Wrap(KindHealth, "core.geom.gate", fmt.Errorf("node 3: %w", base))
	if !errors.Is(c, ErrAborted) {
		t.Fatalf("wrapped cause lost ErrAborted")
	}
	if !errors.Is(c, base) {
		t.Fatalf("wrapped cause lost its detail chain")
	}
}
