package service

import (
	"time"

	"obfuslock/internal/exec"
)

// Exec converts the wire budget into the in-process exec.Budget. The
// two are the same vocabulary — wall clock and conflict cap — with the wire side pinned to integer milliseconds so encoded
// jobs never depend on Go duration formatting.
func (b Budget) Exec() exec.Budget {
	return exec.Budget{
		Timeout:   time.Duration(b.TimeoutMS) * time.Millisecond,
		Conflicts: b.MaxConflicts,
	}
}
