package core

import (
	"context"
	"fmt"

	"iotscope/internal/flowtuple"
)

// VerifyHours replays every hour file of the dataset end to end with
// flowtuple.Verify (header, framing, footer count, gzip checksum) and
// returns the first failure, wrapped with its hour. This is the
// validation gate hot reload runs before committing to a snapshot: a
// dataset that fails verification must never replace one that serves.
// Cancellation is checked between hour files.
func (ds *Dataset) VerifyHours(ctx context.Context) error {
	for h := 0; h < ds.Scenario.Hours; h++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := flowtuple.Verify(flowtuple.HourPath(ds.Dir, h)); err != nil {
			return fmt.Errorf("core: verify hour %d: %w", h, err)
		}
	}
	return nil
}
