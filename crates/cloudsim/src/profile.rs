//! Bandwidth and latency profiles of the simulated clouds.
//!
//! The cloud-testbed numbers reproduce Table 2 of the paper (measured MB/s
//! for 2 GB of unique data transferred in 4 MB units, September 2014, from a
//! client in Hong Kong); the LAN profile reproduces the ~110 MB/s effective
//! speed of the 1 Gb/s testbed switch reported in §5.5.

/// Transfer direction relative to the CDStore client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → cloud.
    Upload,
    /// Cloud → client.
    Download,
}

/// The bandwidth/latency profile of one cloud as seen from the client.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudProfile {
    /// Vendor name ("Amazon", "Google", ...).
    pub name: &'static str,
    /// Mean upload bandwidth in MB/s.
    pub upload_mbps: f64,
    /// Standard deviation of the upload bandwidth in MB/s.
    pub upload_std: f64,
    /// Mean download bandwidth in MB/s.
    pub download_mbps: f64,
    /// Standard deviation of the download bandwidth in MB/s.
    pub download_std: f64,
    /// Per-request round-trip latency in milliseconds.
    pub latency_ms: f64,
}

impl CloudProfile {
    /// Amazon S3 (Singapore), Table 2: upload 5.87 (0.19), download 4.45 (0.30).
    pub const AMAZON: CloudProfile = CloudProfile {
        name: "Amazon",
        upload_mbps: 5.87,
        upload_std: 0.19,
        download_mbps: 4.45,
        download_std: 0.30,
        latency_ms: 35.0,
    };

    /// Google Cloud Storage (Singapore), Table 2: 4.99 (0.23) / 4.45 (0.21).
    pub const GOOGLE: CloudProfile = CloudProfile {
        name: "Google",
        upload_mbps: 4.99,
        upload_std: 0.23,
        download_mbps: 4.45,
        download_std: 0.21,
        latency_ms: 35.0,
    };

    /// Microsoft Azure (Hong Kong), Table 2: 19.59 (1.20) / 13.78 (0.72).
    pub const AZURE: CloudProfile = CloudProfile {
        name: "Azure",
        upload_mbps: 19.59,
        upload_std: 1.20,
        download_mbps: 13.78,
        download_std: 0.72,
        latency_ms: 5.0,
    };

    /// Rackspace (Hong Kong), Table 2: 19.42 (1.06) / 12.93 (1.47).
    pub const RACKSPACE: CloudProfile = CloudProfile {
        name: "Rackspace",
        upload_mbps: 19.42,
        upload_std: 1.06,
        download_mbps: 12.93,
        download_std: 1.47,
        latency_ms: 5.0,
    };

    /// A node on the 1 Gb/s LAN testbed (§5.1): ~110 MB/s effective.
    pub const LAN: CloudProfile = CloudProfile {
        name: "LAN",
        upload_mbps: 110.0,
        upload_std: 2.0,
        download_mbps: 110.0,
        download_std: 2.0,
        latency_ms: 0.2,
    };

    /// The four commercial clouds of the paper's cloud testbed, in the order
    /// the shares are labelled (cloud 0..3).
    pub const COMMERCIAL_CLOUDS: [CloudProfile; 4] = [
        CloudProfile::AMAZON,
        CloudProfile::GOOGLE,
        CloudProfile::AZURE,
        CloudProfile::RACKSPACE,
    ];

    /// Returns `n` LAN profiles (the LAN testbed runs one CDStore server per
    /// machine, all on the same switch).
    pub fn lan_clouds(n: usize) -> Vec<CloudProfile> {
        vec![CloudProfile::LAN; n]
    }

    /// Mean bandwidth for the given direction in MB/s.
    pub fn bandwidth(&self, direction: Direction) -> f64 {
        match direction {
            Direction::Upload => self.upload_mbps,
            Direction::Download => self.download_mbps,
        }
    }

    /// Bandwidth standard deviation for the given direction in MB/s.
    pub fn bandwidth_std(&self, direction: Direction) -> f64 {
        match direction {
            Direction::Upload => self.upload_std,
            Direction::Download => self.download_std,
        }
    }

    /// Time in seconds to transfer `bytes` in one direction at the mean
    /// bandwidth, including one latency round trip per `unit_bytes` request
    /// (the client batches shares into 4 MB units, §4.1).
    pub fn transfer_seconds(&self, bytes: u64, direction: Direction, unit_bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let mb = bytes as f64 / (1024.0 * 1024.0);
        let requests = bytes.div_ceil(unit_bytes.max(1)) as f64;
        mb / self.bandwidth(direction) + requests * self.latency_ms / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_are_embedded() {
        assert_eq!(CloudProfile::AMAZON.upload_mbps, 5.87);
        assert_eq!(CloudProfile::GOOGLE.download_mbps, 4.45);
        assert_eq!(CloudProfile::AZURE.upload_mbps, 19.59);
        assert_eq!(CloudProfile::RACKSPACE.download_mbps, 12.93);
        assert_eq!(CloudProfile::COMMERCIAL_CLOUDS.len(), 4);
    }

    #[test]
    fn asia_clouds_are_slower_than_local_clouds() {
        // The paper's observation: the Singapore clouds (Amazon, Google) are
        // much slower from Hong Kong than the Hong Kong clouds.
        for asia in [&CloudProfile::AMAZON, &CloudProfile::GOOGLE] {
            for local in [&CloudProfile::AZURE, &CloudProfile::RACKSPACE] {
                assert!(asia.upload_mbps < local.upload_mbps / 2.0);
            }
        }
    }

    #[test]
    fn transfer_time_scales_with_size_and_bandwidth() {
        let four_mb = 4 * 1024 * 1024u64;
        let t_small = CloudProfile::LAN.transfer_seconds(four_mb, Direction::Upload, four_mb);
        let t_large = CloudProfile::LAN.transfer_seconds(four_mb * 10, Direction::Upload, four_mb);
        assert!(t_large > 9.0 * t_small && t_large < 11.0 * t_small);
        let t_slow = CloudProfile::GOOGLE.transfer_seconds(four_mb, Direction::Upload, four_mb);
        assert!(t_slow > 10.0 * t_small);
        assert_eq!(
            CloudProfile::LAN.transfer_seconds(0, Direction::Upload, four_mb),
            0.0
        );
    }

    #[test]
    fn lan_clouds_builder() {
        let clouds = CloudProfile::lan_clouds(4);
        assert_eq!(clouds.len(), 4);
        assert!(clouds.iter().all(|c| c.name == "LAN"));
    }

    #[test]
    fn effective_speed_approaches_nominal_for_large_transfers() {
        let bytes = 2u64 * 1024 * 1024 * 1024;
        let secs = CloudProfile::AZURE.transfer_seconds(bytes, Direction::Upload, 4 * 1024 * 1024);
        let effective = (bytes as f64 / (1024.0 * 1024.0)) / secs;
        assert!(
            (effective - CloudProfile::AZURE.upload_mbps).abs() / CloudProfile::AZURE.upload_mbps
                < 0.05
        );
    }
}
