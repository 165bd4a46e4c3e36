//! The library half of the `microscope` command-line front end: the
//! bundle → report call sequences ([`pipeline`]) the binary's subcommands
//! and the `mem_stages` probe both run.

#![forbid(unsafe_code)]

pub mod pipeline;
