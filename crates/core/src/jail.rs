//! The chroot jail command policy (§4.2.3).
//!
//! "One solution … is to restrict the commands available to users by
//! creating a unique environment using the UNIX chroot utility." The
//! danger is tape-oblivious tools — `grep` across a directory forces
//! unordered recalls of every stubbed file it touches, mounting and
//! dismounting tapes repeatedly. The jail models the allowed-command list
//! the administrators install inside the chroot: tape-aware tools are in,
//! recall-storm generators are out.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Why a command was rejected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JailError {
    /// Not on the installed-command list at all.
    NotInstalled(String),
    /// Explicitly banned for being tape-hostile.
    TapeHostile { cmd: String, reason: String },
    /// Empty command line.
    Empty,
}

impl fmt::Display for JailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JailError::NotInstalled(c) => write!(f, "{c}: command not found (chroot jail)"),
            JailError::TapeHostile { cmd, reason } => {
                write!(f, "{cmd}: refused in archive jail ({reason})")
            }
            JailError::Empty => write!(f, "empty command"),
        }
    }
}

impl std::error::Error for JailError {}

/// The restricted environment.
#[derive(Debug, Clone)]
pub struct Jail {
    installed: BTreeSet<String>,
    banned: Vec<(String, String)>,
}

impl Jail {
    /// The environment the paper describes: the PFTool commands plus the
    /// harmless Linux file-management set (§3.3-5: "copy, move, ls, tar"),
    /// with content-scanning tools banned.
    pub fn standard() -> Self {
        let installed = [
            "pfls", "pfcp", "pfcm", "ls", "cp", "mv", "tar", "mkdir", "rmdir", "pwd", "cd", "stat",
            "du", "chmod", "chown", "undelete",
        ]
        .into_iter()
        .map(str::to_string)
        .collect();
        let banned = [
            ("grep", "scans file contents; forces unordered tape recalls"),
            (
                "egrep",
                "scans file contents; forces unordered tape recalls",
            ),
            (
                "fgrep",
                "scans file contents; forces unordered tape recalls",
            ),
            ("cat", "reads whole files; recalls stubs"),
            ("md5sum", "reads whole files; recalls stubs"),
            ("find", "with -exec can touch every stub on the system"),
            (
                "rm",
                "raw unlink bypasses the trashcan and orphans tape data",
            ),
        ]
        .into_iter()
        .map(|(c, r)| (c.to_string(), r.to_string()))
        .collect();
        Jail { installed, banned }
    }

    /// Install an extra command.
    pub fn allow(&mut self, cmd: &str) {
        self.banned.retain(|(c, _)| c != cmd);
        self.installed.insert(cmd.to_string());
    }

    /// Check a command line as the jail's shell would: the first token
    /// must be installed and not banned.
    pub fn check(&self, cmdline: &str) -> Result<(), JailError> {
        let cmd = cmdline.split_whitespace().next().ok_or(JailError::Empty)?;
        if let Some((c, reason)) = self.banned.iter().find(|(c, _)| c == cmd) {
            return Err(JailError::TapeHostile {
                cmd: c.clone(),
                reason: reason.clone(),
            });
        }
        if !self.installed.contains(cmd) {
            return Err(JailError::NotInstalled(cmd.to_string()));
        }
        Ok(())
    }
}

impl Default for Jail {
    fn default() -> Self {
        Jail::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pftool_commands_allowed() {
        let jail = Jail::standard();
        for cmd in [
            "pfls /archive",
            "pfcp /scratch/a /archive/a",
            "pfcm a b",
            "ls -l /archive",
        ] {
            assert!(jail.check(cmd).is_ok(), "{cmd} should be allowed");
        }
    }

    #[test]
    fn grep_is_refused_with_reason() {
        let jail = Jail::standard();
        match jail.check("grep pattern /archive/**") {
            Err(JailError::TapeHostile { cmd, reason }) => {
                assert_eq!(cmd, "grep");
                assert!(reason.contains("recall"));
            }
            other => panic!("expected TapeHostile, got {other:?}"),
        }
    }

    #[test]
    fn raw_rm_is_refused_unknown_is_not_found() {
        let jail = Jail::standard();
        assert!(matches!(
            jail.check("rm -rf /archive/data"),
            Err(JailError::TapeHostile { .. })
        ));
        assert!(matches!(
            jail.check("python3 script.py"),
            Err(JailError::NotInstalled(_))
        ));
        assert_eq!(jail.check("   "), Err(JailError::Empty));
    }

    #[test]
    fn allow_installs_and_unbans() {
        let mut jail = Jail::standard();
        jail.allow("rsync");
        assert!(jail.check("rsync -a x y").is_ok());
        // un-banning by allowing
        jail.allow("cat");
        assert!(jail.check("cat notes.txt").is_ok());
    }
}
