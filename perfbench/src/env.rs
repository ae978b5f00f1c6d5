//! The machine a result was measured on.

use lotus_telemetry::json::Json;

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Cache sizes in bytes, parsed from a sysfs `size` such as `2048K`.
fn size_bytes(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// `nproc`, CPU model and every cache level of CPU 0, plus the size of
/// the last-level cache in MB.
#[must_use]
pub fn describe() -> Json {
    let cpu = read("/proc/cpuinfo").and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let mut caches = Vec::new();
    let mut llc = 0u64;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{dir}/level")),
            read(&format!("{dir}/type")),
            read(&format!("{dir}/size")),
        ) else {
            continue;
        };
        llc = llc.max(size_bytes(&size).unwrap_or(0));
        caches.push(Json::Str(format!("L{level} {kind} {size}")));
    }
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc() as i64)),
        ("cpu".into(), cpu.map_or(Json::Null, Json::Str)),
        ("caches".into(), Json::Arr(caches)),
        (
            "llc_mb".into(),
            Json::Float(llc as f64 / f64::from(1u32 << 20)),
        ),
        (
            "kernel".into(),
            read("/proc/sys/kernel/osrelease").map_or(Json::Null, Json::Str),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(size_bytes("48K"), Some(48 << 10));
        assert_eq!(size_bytes("105M"), Some(105 << 20));
        assert_eq!(size_bytes("512"), Some(512));
        assert_eq!(size_bytes("x"), None);
    }
}
