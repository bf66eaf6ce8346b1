// Package service holds the wire types of the JSON job document. Nothing
// in the module imports it or executes a job any more: the facade's job
// runner is gone, the result layout followed it, and the spec half that
// remains goes next, together with its tests and golden files.
//
// JobSpec ("obfuslock-job/v1") names one pipeline — lock, attack, cec,
// count or sample — with its circuits as .bench text, its SchemeOptions
// or AttackOptions, and an optional Budget in explicit integer units.
// Error is the structured failure with a stable Code. Validate checks a
// spec's schema, kind, required fields and budget before anything runs,
// DecodeSpec reads a JSON job document strictly and validates it, and
// Budget.Exec converts the wire budget to exec.Budget.
//
// The wire types are self-contained — nothing in a JobSpec references
// another package — which the facade's API-surface test enforces.
package service
