//! Process and filesystem probes read from outside the program: peak RSS,
//! bytes passed to `write(2)`, and on-disk sizes.

use std::fs;
use std::io;
use std::path::Path;

/// Resets the process's peak-RSS watermark (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib = status_field(&status, "VmHWM:").ok_or_else(|| io::Error::other("no VmHWM"))?;
    Ok(kib as f64 / 1024.0)
}

/// Bytes this process has passed to `write(2)` and its relatives so far
/// (`wchar` of `/proc/self/io`), whether or not they reached a device.
pub fn bytes_written() -> io::Result<u64> {
    let io_stats = fs::read_to_string("/proc/self/io")?;
    status_field(&io_stats, "wchar:").ok_or_else(|| io::Error::other("no wchar"))
}

/// The number after `key` on its line of a `/proc` key-value file.
fn status_field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copies the directory tree `from` to `to` (which must not exist).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_fields() {
        let text = "Name:\tx\nVmHWM:\t   13532 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(status_field(text, "VmHWM:"), Some(13532));
        assert_eq!(status_field("wchar: 1705\n", "wchar:"), Some(1705));
        assert_eq!(status_field(text, "VmSwap:"), None);
    }

    #[test]
    fn copies_and_sizes_a_tree() {
        let base = std::env::temp_dir().join(format!("perfbench-sys-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(base.join("a/b")).unwrap();
        fs::write(base.join("a/x"), [0u8; 10]).unwrap();
        fs::write(base.join("a/b/y"), [0u8; 5]).unwrap();
        copy_dir(&base.join("a"), &base.join("c")).unwrap();
        assert_eq!(dir_bytes(&base.join("c")).unwrap(), 15);
        fs::remove_dir_all(&base).unwrap();
    }
}
