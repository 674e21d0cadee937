package apiserve

import "iotscope/internal/matview"

// Signature is the row type of /v1/signatures, which the legacy handler
// builds by hand; matview materializes the served table.
type Signature = matview.Signature
