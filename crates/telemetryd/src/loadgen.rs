//! Load-generator modes of the simulation engines: drive the fleet and
//! session simulators and upload their 1 Hz output as newline-delimited
//! JSON device reports, exactly as a phone-side agent would. The fleet
//! generator replays the same coordinate-derived seeds as the batch
//! engine (`start_user` + `step_1s`), so a service that ingests its
//! stream must fold to a byte-identical [`mvqoe_study::FleetAggregate`].

use crate::report::{DeviceReport, IngestAck};
use mvqoe_abr::BufferBased;
use mvqoe_core::{Session, SessionConfig};
use mvqoe_sim::SimTime;
use mvqoe_study::{start_user, FleetConfig};
use mvqoe_video::Fps;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;

/// Open an ingest connection, run `upload` against its buffered write
/// half, then half-close and wait for the server's [`IngestAck`] line.
fn with_ingest_stream(
    addr: SocketAddr,
    upload: impl FnOnce(&mut BufWriter<&TcpStream>) -> std::io::Result<()>,
) -> std::io::Result<IngestAck> {
    let stream = TcpStream::connect(addr)?;
    {
        // 64 KiB of buffering keeps the 1 Hz sample lines off the syscall
        // path; one flush per upload.
        let mut writer = BufWriter::with_capacity(64 * 1024, &stream);
        upload(&mut writer)?;
        writer.flush()?;
    }
    stream.shutdown(Shutdown::Write)?;
    let mut ack_line = String::new();
    BufReader::new(&stream).read_line(&mut ack_line)?;
    Ok(serde_json::from_str(ack_line.trim_end())?)
}

/// Encode one report line straight into the connection's buffer.
fn write_report(
    writer: &mut BufWriter<&TcpStream>,
    report: &DeviceReport,
) -> std::io::Result<()> {
    serde_json::to_writer(&mut *writer, report)?;
    writer.write_all(b"\n")
}

/// Simulate fleet users `users` under `cfg` and upload each as a
/// `Begin` / 1 Hz `Sample` stream / `End` sequence over one connection.
/// Returns the server's ack once everything uploaded is folded.
pub fn run_fleet_loadgen(
    addr: SocketAddr,
    cfg: &FleetConfig,
    users: Range<u32>,
) -> std::io::Result<IngestAck> {
    with_ingest_stream(addr, |writer| {
        for i in users {
            let mut st = start_user(cfg, i);
            write_report(
                writer,
                &DeviceReport::Begin {
                    device: i,
                    name: st.user.device.name.clone(),
                    manufacturer: st.user.device.manufacturer.clone(),
                    ram_mib: st.user.device.ram_mib,
                    pattern: st.user.pattern,
                    hours: st.hours,
                },
            )?;
            for s in 0..st.seconds() {
                let sample = st.user.step_1s(SimTime::from_secs(s));
                write_report(writer, &DeviceReport::Sample { device: i, sample })?;
            }
            write_report(writer, &DeviceReport::End { device: i })?;
        }
        Ok(())
    })
}

/// Run one live video session (buffer-based ABR over the paper-default
/// config) and upload its 1 Hz QoE reports as they are emitted.
pub fn run_session_loadgen(
    addr: SocketAddr,
    mut cfg: SessionConfig,
    device_id: u32,
) -> std::io::Result<IngestAck> {
    cfg.record_trace = false;
    with_ingest_stream(addr, |writer| {
        let mut session = Session::start(cfg);
        let mut abr = BufferBased::new(Fps::F30);
        let mut upload_err = None;
        let mut sink = |report: &mvqoe_core::QoeReport| {
            if upload_err.is_some() {
                return;
            }
            let line = DeviceReport::Qoe {
                device: device_id,
                report: *report,
            };
            if let Err(e) = write_report(writer, &line) {
                upload_err = Some(e);
            }
        };
        session.run_until_with_sink(&mut abr, SimTime::MAX, None, &mut sink);
        session.finish(None);
        match upload_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}
