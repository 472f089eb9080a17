//! Nickname definitions.
//!
//! A *nickname* is the local name of a remote table (paper §1). A nickname
//! may map to several sources — the original server and its replicas — and
//! the choice among them is exactly what load-aware routing decides.

use qcc_common::{QccError, Result, Schema, ServerId};
use std::collections::{BTreeMap, BTreeSet};

/// One source that can answer a nickname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMapping {
    /// The remote server.
    pub server: ServerId,
    /// The table name at that server.
    pub remote_table: String,
}

/// A nickname: schema plus its sources.
#[derive(Debug, Clone)]
pub struct NicknameDef {
    /// Nickname (lowercased).
    pub name: String,
    /// The relational schema all sources of this nickname share.
    pub schema: Schema,
    /// Sources, in registration order (the first is the "origin", the
    /// rest replicas — the distinction only matters for display).
    pub sources: Vec<SourceMapping>,
    /// The distinct servers of `sources`, kept in step by
    /// [`NicknameCatalog::add_source`]: an O(log n) membership test for
    /// host intersection.
    hosts: BTreeSet<ServerId>,
}

impl NicknameDef {
    /// The servers of `sources`, in registration order (the host list a
    /// fragment grouping starts from).
    pub(crate) fn servers(&self) -> Vec<ServerId> {
        self.sources.iter().map(|s| s.server.clone()).collect()
    }

    /// Whether any of `servers` hosts this nickname.
    pub(crate) fn hosts_any(&self, servers: &[ServerId]) -> bool {
        servers.iter().any(|s| self.hosts.contains(s))
    }

    /// Narrow `servers` to those hosting this nickname, keeping their
    /// order: the intersection rule shared by fragment grouping and
    /// [`NicknameCatalog::common_servers`].
    pub(crate) fn narrow(&self, servers: &mut Vec<ServerId>) {
        servers.retain(|s| self.hosts.contains(s));
    }
}

/// The integrator's nickname catalog.
#[derive(Debug, Clone, Default)]
pub struct NicknameCatalog {
    defs: BTreeMap<String, NicknameDef>,
}

impl NicknameCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        NicknameCatalog::default()
    }

    /// Define a nickname with its schema. Replaces an existing definition.
    pub fn define(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into().to_ascii_lowercase();
        self.defs.insert(
            name.clone(),
            NicknameDef {
                name,
                schema,
                sources: Vec::new(),
                hosts: BTreeSet::new(),
            },
        );
    }

    /// Register a source (origin or replica) for a nickname.
    pub fn add_source(
        &mut self,
        nickname: &str,
        server: ServerId,
        remote_table: impl Into<String>,
    ) -> Result<()> {
        let def = self
            .defs
            .get_mut(&nickname.to_ascii_lowercase())
            .ok_or_else(|| QccError::UnknownTable(nickname.to_owned()))?;
        let mapping = SourceMapping {
            server,
            remote_table: remote_table.into().to_ascii_lowercase(),
        };
        if !def.sources.contains(&mapping) {
            def.hosts.insert(mapping.server.clone());
            def.sources.push(mapping);
        }
        Ok(())
    }

    /// Look up a nickname.
    pub fn get(&self, name: &str) -> Result<&NicknameDef> {
        self.defs
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| QccError::UnknownTable(name.to_owned()))
    }

    /// All nickname names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.defs.keys().map(String::as_str).collect()
    }

    /// Servers that host *all* of the given nicknames (candidate executors
    /// for a fragment touching exactly those nicknames).
    pub fn common_servers(&self, nicknames: &[&str]) -> Result<Vec<ServerId>> {
        let mut iter = nicknames.iter();
        let Some(first) = iter.next() else {
            return Ok(vec![]);
        };
        let mut servers = self.get(first)?.servers();
        for nick in iter {
            self.get(nick)?.narrow(&mut servers);
        }
        servers.dedup();
        Ok(servers)
    }

    /// The remote table name for `nickname` at `server`.
    pub fn remote_table(&self, nickname: &str, server: &ServerId) -> Result<&str> {
        let def = self.get(nickname)?;
        def.sources
            .iter()
            .find(|m| &m.server == server)
            .map(|m| m.remote_table.as_str())
            .ok_or_else(|| {
                QccError::Planning(format!(
                    "nickname {nickname} has no source at server {server}"
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int)])
    }

    fn catalog() -> NicknameCatalog {
        let mut c = NicknameCatalog::new();
        c.define("accounts", schema());
        c.define("branches", schema());
        c.add_source("accounts", ServerId::new("S1"), "acct")
            .unwrap();
        c.add_source("accounts", ServerId::new("R1"), "acct")
            .unwrap();
        c.add_source("branches", ServerId::new("S1"), "branch")
            .unwrap();
        c.add_source("branches", ServerId::new("S2"), "branch")
            .unwrap();
        c
    }

    #[test]
    fn define_and_lookup() {
        let c = catalog();
        assert_eq!(c.get("ACCOUNTS").unwrap().sources.len(), 2);
        assert!(c.get("missing").is_err());
        assert_eq!(c.names(), vec!["accounts", "branches"]);
    }

    #[test]
    fn common_servers_intersects() {
        let c = catalog();
        let common = c.common_servers(&["accounts", "branches"]).unwrap();
        assert_eq!(common, vec![ServerId::new("S1")]);
        let only_acct = c.common_servers(&["accounts"]).unwrap();
        assert_eq!(only_acct.len(), 2);
        // The first nickname's source order survives the intersection.
        let mut c = c;
        c.add_source("branches", ServerId::new("R1"), "branch")
            .unwrap();
        let common = c.common_servers(&["accounts", "branches"]).unwrap();
        assert_eq!(common, vec![ServerId::new("S1"), ServerId::new("R1")]);
    }

    #[test]
    fn hosts_track_sources_and_reset_on_redefine() {
        let mut c = catalog();
        let hosts: Vec<&str> = c
            .get("accounts")
            .unwrap()
            .hosts
            .iter()
            .map(ServerId::as_str)
            .collect();
        assert_eq!(hosts, vec!["R1", "S1"]);
        c.define("accounts", schema());
        assert!(c.get("accounts").unwrap().hosts.is_empty());
        c.add_source("accounts", ServerId::new("S7"), "acct")
            .unwrap();
        let def = c.get("accounts").unwrap();
        assert_eq!(
            def.hosts.iter().collect::<Vec<_>>(),
            vec![&ServerId::new("S7")]
        );
        assert!(def.hosts_any(&[ServerId::new("S1"), ServerId::new("S7")]));
        assert!(!def.hosts_any(&[ServerId::new("S1")]));
    }

    #[test]
    fn remote_table_translation() {
        let c = catalog();
        assert_eq!(
            c.remote_table("accounts", &ServerId::new("R1")).unwrap(),
            "acct"
        );
        assert!(c.remote_table("accounts", &ServerId::new("S2")).is_err());
    }

    #[test]
    fn duplicate_source_ignored() {
        let mut c = catalog();
        c.add_source("accounts", ServerId::new("S1"), "acct")
            .unwrap();
        assert_eq!(c.get("accounts").unwrap().sources.len(), 2);
    }

    #[test]
    fn add_source_unknown_nickname_errors() {
        let mut c = catalog();
        assert!(c.add_source("nope", ServerId::new("S1"), "t").is_err());
    }
}
