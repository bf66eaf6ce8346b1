// Package service holds the wire types of the job API that the facade's
// obfuslock.RunJob executes in-process.
//
// JobSpec ("obfuslock-job/v1") names one pipeline — lock, attack, cec,
// count or sample — with its circuits as .bench text, its SchemeOptions
// or AttackOptions, and an optional Budget in explicit integer units.
// JobResult ("obfuslock-result/v1") is the outcome; it carries no
// wall-clock fields, so a spec's result encodes byte-identically whether
// it ran alone or next to other jobs. Error is the structured failure
// with a stable Code. Validate checks a spec's schema, kind, required
// fields and budget before anything runs, DecodeSpec reads a JSON job
// document strictly and validates it, and Budget.Exec converts the wire
// budget to exec.Budget.
//
// Execution lives in the facade, where the scheme and attack registries
// are in scope. That keeps the wire types self-contained — nothing in a
// JobSpec or JobResult references another package — which the facade's
// API-surface test enforces.
package service
