"""MulVAL-style Datalog interaction rules: parsing, emission, wiring
statistics and rule synthesis."""
