//! The data-driven device registry.
//!
//! Devices are plain [`DeviceSpec`] descriptors, not code: the built-in set
//! (K20X, K40, a wavefront-64 AMD Hawaii class, and a Volta V100 class)
//! ships as data, and user descriptor files (`sfc`/`sfd --device-file`)
//! extend or override it. Every lookup is case-insensitive on the
//! descriptor name, and every failed lookup reports the available names so
//! `sfc`, `sfd`, and the bench harness share one error path.
//!
//! A registry never holds an invalid descriptor: [`DeviceSpec::validate`]
//! gates both the built-ins (checked in tests) and everything loaded from
//! a file. Identity across plans and caches is the descriptor
//! [`DeviceSpec::fingerprint`], so editing a file-loaded descriptor
//! invalidates stale cached plans instead of silently replaying them.

use crate::device::DeviceSpec;
use std::fmt;
use std::path::Path;

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryError {
    message: String,
}

impl RegistryError {
    fn new(message: impl Into<String>) -> RegistryError {
        RegistryError {
            message: message.into(),
        }
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RegistryError {}

/// An ordered, name-unique collection of validated device descriptors.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRegistry {
    devices: Vec<DeviceSpec>,
}

impl DeviceRegistry {
    /// An empty registry (used by tests; production paths start from
    /// [`DeviceRegistry::builtin`]).
    pub fn empty() -> DeviceRegistry {
        DeviceRegistry {
            devices: Vec::new(),
        }
    }

    /// The built-in descriptor set: the paper's two Kepler boards plus a
    /// wavefront-64 AMD class and a Volta class as additional occupancy
    /// data points.
    pub fn builtin() -> DeviceRegistry {
        DeviceRegistry {
            devices: vec![
                DeviceSpec::k20x(),
                DeviceSpec::k40(),
                DeviceSpec::hawaii(),
                DeviceSpec::v100(),
            ],
        }
    }

    /// The descriptors, in registration order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Lowercase names, in registration order — the list shown by error
    /// messages and `--help` text.
    pub fn names(&self) -> Vec<String> {
        self.devices
            .iter()
            .map(|d| d.name.to_ascii_lowercase())
            .collect()
    }

    /// Case-insensitive lookup. Unknown names report the available set, so
    /// every front end (`sfc`, `sfd`, `sf-bench`) prints the same message.
    pub fn resolve(&self, name: &str) -> Result<DeviceSpec, RegistryError> {
        self.devices
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
            .cloned()
            .ok_or_else(|| {
                RegistryError::new(format!(
                    "unknown device `{name}` (available: {})",
                    self.names().join(", ")
                ))
            })
    }

    /// Validate and add a descriptor. A name collision (case-insensitive)
    /// *replaces* the existing entry — that is how a user file overrides a
    /// built-in — keeping its position so `names()` stays stable.
    pub fn register(&mut self, spec: DeviceSpec) -> Result<(), RegistryError> {
        spec.validate().map_err(RegistryError::new)?;
        if let Some(slot) = self
            .devices
            .iter_mut()
            .find(|d| d.name.eq_ignore_ascii_case(&spec.name))
        {
            *slot = spec;
        } else {
            self.devices.push(spec);
        }
        Ok(())
    }

    /// Load descriptors from a JSON document: either a single `DeviceSpec`
    /// object or an array of them. Returns how many were registered.
    pub fn extend_from_json(&mut self, json: &str) -> Result<usize, RegistryError> {
        let specs: Vec<DeviceSpec> = match serde_json::from_str::<Vec<DeviceSpec>>(json) {
            Ok(v) => v,
            Err(_) => vec![serde_json::from_str::<DeviceSpec>(json).map_err(|e| {
                RegistryError::new(format!(
                    "device file is neither a DeviceSpec object nor an array of them: {e}"
                ))
            })?],
        };
        if specs.is_empty() {
            return Err(RegistryError::new("device file contains no descriptors"));
        }
        let n = specs.len();
        for spec in specs {
            self.register(spec)?;
        }
        Ok(n)
    }

    /// Load a descriptor file from disk (see [`Self::extend_from_json`]).
    pub fn load_file(&mut self, path: &Path) -> Result<usize, RegistryError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            RegistryError::new(format!("cannot read device file {}: {e}", path.display()))
        })?;
        self.extend_from_json(&text)
            .map_err(|e| RegistryError::new(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_set_and_order() {
        let r = DeviceRegistry::builtin();
        assert_eq!(r.names(), ["k20x", "k40", "hawaii", "v100"]);
        for d in r.devices() {
            d.validate().unwrap();
        }
    }

    #[test]
    fn resolve_is_case_insensitive_and_lists_available() {
        let r = DeviceRegistry::builtin();
        assert_eq!(r.resolve("HAWAII").unwrap().warp_size, 64);
        assert_eq!(r.resolve("k20x").unwrap(), r.resolve("K20X").unwrap());
        let err = r.resolve("h100").unwrap_err().to_string();
        assert!(err.contains("unknown device `h100`"), "{err}");
        assert!(err.contains("k20x, k40, hawaii, v100"), "{err}");
    }

    #[test]
    fn register_rejects_invalid_and_overrides_by_name() {
        let mut r = DeviceRegistry::builtin();
        let mut bad = DeviceSpec::k20x();
        bad.warp_size = 0;
        assert!(r.register(bad).is_err());

        // Same name (any case) replaces in place; a new name appends.
        let mut tweaked = DeviceSpec::k20x();
        tweaked.name = "k20x".into();
        tweaked.mem_bw_gbps = 999.0;
        r.register(tweaked).unwrap();
        assert_eq!(r.names(), ["k20x", "k40", "hawaii", "v100"]);
        assert_eq!(r.resolve("K20X").unwrap().mem_bw_gbps, 999.0);

        let mut fresh = DeviceSpec::k40();
        fresh.name = "CustomBoard".into();
        r.register(fresh).unwrap();
        assert_eq!(r.names().last().map(String::as_str), Some("customboard"));
    }

    #[test]
    fn json_round_trip_single_and_array() {
        let mut r = DeviceRegistry::empty();
        let one = serde_json::to_string(&DeviceSpec::v100()).unwrap();
        assert_eq!(r.extend_from_json(&one).unwrap(), 1);
        let many = serde_json::to_string(&vec![DeviceSpec::k20x(), DeviceSpec::hawaii()]).unwrap();
        assert_eq!(r.extend_from_json(&many).unwrap(), 2);
        assert_eq!(r.names(), ["v100", "k20x", "hawaii"]);
        // Round-tripped descriptors keep their fingerprints.
        assert_eq!(
            r.resolve("v100").unwrap().fingerprint(),
            DeviceSpec::v100().fingerprint()
        );
    }

    #[test]
    fn json_rejects_garbage_and_invalid_descriptors() {
        let mut r = DeviceRegistry::empty();
        assert!(r.extend_from_json("not json").is_err());
        assert!(r.extend_from_json("[]").is_err());
        let mut bad = DeviceSpec::k20x();
        bad.smem_per_block_max = bad.smem_per_sm + 1;
        let json = serde_json::to_string(&bad).unwrap();
        assert!(r.extend_from_json(&json).is_err());
    }

    #[test]
    fn edited_file_descriptor_changes_fingerprint() {
        // The cache keys on the fingerprint, so an edited descriptor file
        // must produce a different identity than the built-in it overrides.
        let mut r = DeviceRegistry::builtin();
        let mut edited = DeviceSpec::k40();
        edited.bw_efficiency = 0.9;
        let json = serde_json::to_string(&edited).unwrap();
        r.extend_from_json(&json).unwrap();
        assert_ne!(
            r.resolve("k40").unwrap().fingerprint(),
            DeviceSpec::k40().fingerprint()
        );
    }

    #[test]
    fn load_file_reports_path() {
        let mut r = DeviceRegistry::builtin();
        let err = r
            .load_file(Path::new("/nonexistent/devices.json"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("/nonexistent/devices.json"), "{err}");
    }
}
