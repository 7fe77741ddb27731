//! Driving the real `hcl` binary: child processes, the socket protocols,
//! and the `/proc` counters read from outside the program.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Variables that change what `hcl build` produces; cleared so the flags
/// in the run record are the whole configuration.
const BUILD_ENV: [&str; 2] = ["HCL_BUILD_THREADS", "HCL_BUILD_STRATEGY"];

/// A `Command` for the binary with the build-shaping environment cleared.
pub fn hcl(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for var in BUILD_ENV {
        cmd.env_remove(var);
    }
    cmd
}

/// Runs `hcl build <edges> --out <out> <flags>` to completion.
pub fn build(bin: &Path, edges: &Path, out: &Path, flags: &[String]) -> Result<(), String> {
    let output = hcl(bin)
        .arg("build")
        .arg(edges)
        .arg("--out")
        .arg(out)
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawning hcl build: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "hcl build failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(())
}

/// Drains a child's stderr on a thread so the child never blocks on a
/// full pipe, forwarding the address from `listening on ADDR` and
/// keeping the last lines for error reports.
fn drain_stderr(child: &mut Child) -> (JoinHandle<Vec<String>>, mpsc::Receiver<String>) {
    let stderr = child.stderr.take().expect("stderr is piped");
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut tail: Vec<String> = Vec::new();
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("listening on ") {
                if let Some(addr) = rest.split_whitespace().next() {
                    let _ = tx.send(addr.to_string());
                }
            }
            if tail.len() == 20 {
                tail.remove(0);
            }
            tail.push(line);
        }
        tail
    });
    (handle, rx)
}

/// A running `hcl serve` child. Dropping it kills and reaps the process,
/// so no exit path of the benchmark leaves one behind.
pub struct Served {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Served {
    /// The child's pid, for `/proc` reads.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn vm_hwm_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Bytes this process caused to be sent to storage (`write_bytes`).
    pub fn write_bytes(&self) -> Option<u64> {
        let io = std::fs::read_to_string(format!("/proc/{}/io", self.pid())).ok()?;
        let line = io.lines().find(|l| l.starts_with("write_bytes:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Closes stdin (the graceful drain for both serve modes) and waits
    /// for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("hcl serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("hcl serve did not drain within 60 s".into()),
                Err(e) => return Err(format!("waiting for hcl serve: {e}")),
            }
        }
    }

    /// SIGKILL, as a crash would: no drain, no shutdown work.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The last stderr lines, for error reports (reaps the child first).
    pub fn stderr_tail(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
            .join("\n")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// `hcl serve --index <index> --listen 127.0.0.1:0 --workers <workers>`,
/// returned once it has printed the address it listens on.
pub fn serve_listen(bin: &Path, index: &Path, workers: usize) -> Result<(Served, String), String> {
    let mut child = hcl(bin)
        .arg("serve")
        .arg("--index")
        .arg(index)
        .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning hcl serve: {e}"))?;
    let stdin = child.stdin.take();
    let (handle, rx) = drain_stderr(&mut child);
    let served = Served {
        child,
        stdin,
        stderr: Some(handle),
    };
    match rx.recv_timeout(Duration::from_secs(150)) {
        Ok(addr) => Ok((served, addr)),
        Err(_) => Err(format!(
            "hcl serve never listened:\n{}",
            served.stderr_tail()
        )),
    }
}

/// `hcl serve --index <index> --workers <workers>` reading pairs on stdin.
pub fn serve_stdin(
    bin: &Path,
    index: &Path,
    workers: usize,
) -> Result<(Served, ChildStdin, std::process::ChildStdout), String> {
    let mut child = hcl(bin)
        .arg("serve")
        .arg("--index")
        .arg(index)
        .args(["--workers", &workers.to_string(), "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning hcl serve: {e}"))?;
    let stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    let (handle, _) = drain_stderr(&mut child);
    Ok((
        Served {
            child,
            stdin: None,
            stderr: Some(handle),
        },
        stdin,
        stdout,
    ))
}

/// Parses one `u v d` answer line (`inf` when disconnected).
pub fn parse_answer(line: &str) -> Option<(u32, u32, Option<u32>)> {
    let mut it = line.split_whitespace();
    let u = it.next()?.parse().ok()?;
    let v = it.next()?.parse().ok()?;
    let d = match it.next()? {
        "inf" => None,
        d => Some(d.parse().ok()?),
    };
    it.next().is_none().then_some((u, v, d))
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

/// Sends `pairs` down one line-protocol connection and returns the
/// answers in order; `None` where the answer is missing or malformed.
pub fn query_batch(addr: &str, pairs: &[(u32, u32)]) -> io::Result<Vec<Option<Option<u32>>>> {
    let stream = connect(addr)?;
    let mut body = String::with_capacity(pairs.len() * 14);
    for (u, v) in pairs {
        body.push_str(&format!("{u} {v}\n"));
    }
    (&stream).write_all(body.as_bytes())?;
    stream.shutdown(Shutdown::Write)?;
    let mut answers = Vec::with_capacity(pairs.len());
    let mut lines = BufReader::new(&stream).lines();
    for &(u, v) in pairs {
        let got = match lines.next() {
            Some(line) => parse_answer(&line?).filter(|a| (a.0, a.1) == (u, v)),
            None => None,
        };
        answers.push(got.map(|a| a.2));
    }
    Ok(answers)
}

/// One HTTP/1.1 exchange; returns the status code and the body.
pub fn http(addr: &str, method: &str, target: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = connect(addr)?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// The value of `"key":<number>` in a flat JSON body.
pub fn json_number(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `GET /query?s=u&t=v` → the served distance (`None` when disconnected).
pub fn http_query(addr: &str, u: u32, v: u32) -> io::Result<Option<Option<u32>>> {
    let (status, body) = http(addr, "GET", &format!("/query?s={u}&t={v}"), "")?;
    if status != 200 {
        return Ok(None);
    }
    if body.contains("\"dist\":null") {
        return Ok(Some(None));
    }
    Ok(json_number(&body, "dist").map(|d| Some(d as u32)))
}

/// The value of an exposition line `name value` from `/metrics`.
pub fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_and_exposition_parse() {
        assert_eq!(parse_answer("3 7 2\n"), Some((3, 7, Some(2))));
        assert_eq!(parse_answer("3 7 inf"), Some((3, 7, None)));
        assert_eq!(parse_answer("3 7"), None);
        assert_eq!(parse_answer("3 7 2 9"), None);
        let m = "hcl_up 1\nhcl_latency_us{quantile=\"0.5\"} 21.5\n";
        assert_eq!(
            metric_value(m, "hcl_latency_us{quantile=\"0.5\"}"),
            Some(21.5)
        );
        assert_eq!(metric_value(m, "hcl_latency_us"), None);
        let body = "{\"ok\":true,\"applied\":1,\"dist\":12}";
        assert_eq!(json_number(body, "applied"), Some(1.0));
        assert_eq!(json_number(body, "dist"), Some(12.0));
    }
}
