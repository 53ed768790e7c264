package ops

// dashHTML is the /dash live dashboard: a single self-contained page
// (inline CSS + JS, zero external assets) that polls /api/history and
// /healthz and renders sparkline strips per series, grouped by subsystem
// prefix, with SLO breach markers on every strip. Counters plot their
// windowed rate, gauges their raw samples, histograms their per-window
// p99. Colors are role tokens declared once in :root-scoped custom
// properties (light and dark steps of the same validated palette);
// breach markers use the reserved status-critical color and always carry
// an icon + label, never color alone.
const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>distscroll ops · history</title>
<style>
  .viz-root {
    color-scheme: light;
    --page:           #f9f9f7;
    --surface-1:      #fcfcfb;
    --text-primary:   #0b0b0b;
    --text-secondary: #52514e;
    --text-muted:     #898781;
    --gridline:       #e1e0d9;
    --baseline:       #c3c2b7;
    --series-1:       #2a78d6;
    --critical:       #d03b3b;
    --good:           #0ca30c;
    --border:         rgba(11,11,11,0.10);
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --page:           #0d0d0d;
      --surface-1:      #1a1a19;
      --text-primary:   #ffffff;
      --text-secondary: #c3c2b7;
      --text-muted:     #898781;
      --gridline:       #2c2c2a;
      --baseline:       #383835;
      --series-1:       #3987e5;
      --critical:       #d03b3b;
      --good:           #0ca30c;
      --border:         rgba(255,255,255,0.10);
    }
  }
  .viz-root {
    margin: 0; padding: 20px;
    background: var(--page); color: var(--text-primary);
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
    font-size: 14px;
  }
  h1 { font-size: 16px; font-weight: 600; margin: 0 0 2px; }
  .sub { color: var(--text-muted); font-size: 12px; margin-bottom: 16px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-bottom: 18px; }
  .tile {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 6px; padding: 10px 14px; min-width: 110px;
  }
  .tile .k { color: var(--text-muted); font-size: 11px; }
  .tile .v { font-size: 20px; font-weight: 600; margin-top: 2px; }
  .tile .v.bad { color: var(--critical); }
  .tile .v.good { color: var(--good); }
  .group {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 6px; padding: 8px 14px 10px; margin-bottom: 14px;
  }
  .group h2 {
    font-size: 12px; font-weight: 600; color: var(--text-secondary);
    text-transform: uppercase; letter-spacing: 0.04em; margin: 4px 0 6px;
  }
  .row { display: flex; align-items: center; gap: 10px; padding: 3px 0; }
  .row .name {
    flex: 0 0 280px; color: var(--text-secondary); font-size: 12px;
    overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
  }
  .row .name.shard { padding-left: 16px; color: var(--text-muted); }
  .row .val {
    flex: 0 0 110px; text-align: right; font-variant-numeric: tabular-nums;
    color: var(--text-primary); font-size: 12px;
  }
  .row svg { flex: 1 1 auto; display: block; min-width: 120px; }
  .row .range {
    flex: 0 0 130px; color: var(--text-muted); font-size: 11px;
    font-variant-numeric: tabular-nums; text-align: left;
  }
  .breaches { margin-top: 4px; }
  .breaches .b {
    color: var(--text-primary); font-size: 12px; padding: 2px 0;
    font-variant-numeric: tabular-nums;
  }
  .breaches .b .icon { color: var(--critical); font-weight: 700; }
  #tip {
    position: fixed; display: none; pointer-events: none; z-index: 10;
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 4px; padding: 4px 8px; font-size: 11px;
    color: var(--text-primary); font-variant-numeric: tabular-nums;
    box-shadow: 0 2px 8px rgba(0,0,0,0.25);
  }
  #tip .t { color: var(--text-muted); }
  .empty { color: var(--text-muted); padding: 12px 0; }
</style>
</head>
<body class="viz-root">
<h1>distscroll ops &middot; telemetry history</h1>
<div class="sub" id="meta">connecting&hellip;</div>
<div class="tiles" id="tiles"></div>
<div id="groups"></div>
<div id="tip"></div>
<script>
(function () {
  "use strict";
  var PREFIXES = ["fw_", "rf_", "arq_", "hub_", "net_", "sim_"];
  var SPARK_W = 600, SPARK_H = 34, PAD = 2;
  var tip = document.getElementById("tip");
  var last = null;

  function fmt(v) {
    if (!isFinite(v)) return "0";
    var a = Math.abs(v);
    if (a >= 1e9) return (v / 1e9).toFixed(2) + "G";
    if (a >= 1e6) return (v / 1e6).toFixed(2) + "M";
    if (a >= 1e3) return (v / 1e3).toFixed(1) + "k";
    if (a >= 100 || v === Math.round(v)) return v.toFixed(0);
    return v.toFixed(2);
  }

  function groupOf(name) {
    for (var i = 0; i < PREFIXES.length; i++) {
      if (name.indexOf(PREFIXES[i]) === 0) return PREFIXES[i];
    }
    return "other";
  }

  // seriesValues picks the plotted column: rates/samples for scalars,
  // the per-window p99 for histograms.
  function seriesValues(sd) {
    if (sd.kind === "histogram") return { vals: sd.p99 || [], label: " p99" };
    return { vals: sd.values || [], label: "" };
  }

  function sparkline(vals, breachIdx) {
    var n = vals.length;
    var svg = '<svg viewBox="0 0 ' + SPARK_W + ' ' + SPARK_H + '" preserveAspectRatio="none" height="' + SPARK_H + '">';
    svg += '<line x1="0" y1="' + (SPARK_H - 1) + '" x2="' + SPARK_W + '" y2="' + (SPARK_H - 1) + '" stroke="var(--baseline)" stroke-width="1"/>';
    if (n > 1) {
      var min = Infinity, max = -Infinity, i;
      for (i = 0; i < n; i++) { if (vals[i] < min) min = vals[i]; if (vals[i] > max) max = vals[i]; }
      if (!isFinite(min)) { min = 0; max = 1; }
      if (max === min) max = min + 1;
      var pts = "";
      for (i = 0; i < n; i++) {
        var x = (i / (n - 1)) * (SPARK_W - 2 * PAD) + PAD;
        var y = SPARK_H - PAD - ((vals[i] - min) / (max - min)) * (SPARK_H - 2 * PAD);
        pts += (i ? " " : "") + x.toFixed(1) + "," + y.toFixed(1);
      }
      for (i = 0; i < breachIdx.length; i++) {
        var bx = (breachIdx[i] / (n - 1)) * (SPARK_W - 2 * PAD) + PAD;
        svg += '<line x1="' + bx.toFixed(1) + '" y1="0" x2="' + bx.toFixed(1) + '" y2="' + SPARK_H + '" stroke="var(--critical)" stroke-width="1.5"/>';
      }
      svg += '<polyline fill="none" stroke="var(--series-1)" stroke-width="1.5" points="' + pts + '"/>';
    }
    svg += "</svg>";
    return svg;
  }

  function rangeText(vals) {
    if (!vals.length) return "";
    var min = Infinity, max = -Infinity;
    for (var i = 0; i < vals.length; i++) { if (vals[i] < min) min = vals[i]; if (vals[i] > max) max = vals[i]; }
    return fmt(min) + " – " + fmt(max);
  }

  function tile(k, v, cls) {
    return '<div class="tile"><div class="k">' + k + '</div><div class="v ' + (cls || "") + '">' + v + "</div></div>";
  }

  function lastOf(res, name) {
    var sd = res.series[name];
    if (!sd) return null;
    var vv = seriesValues(sd).vals;
    return vv.length ? vv[vv.length - 1] : null;
  }

  function render(res, health) {
    last = res;
    var names = Object.keys(res.series).sort();
    document.getElementById("meta").textContent =
      res.times.length + " windows retained (capacity " + res.capacity + ", " +
      res.intervalSeconds + "s each, " + res.count + " captured) · polling /api/history every 2s";

    var tiles = "";
    if (health !== null) {
      tiles += tile("healthz", health ? "ok" : "503 breach", health ? "good" : "bad");
    }
    var devices = lastOf(res, "sim_devices");
    if (devices !== null) tiles += tile("devices", fmt(devices));
    var tps = lastOf(res, "sim_ticks_per_second");
    if (tps !== null) tiles += tile("ticks/s", fmt(tps));
    var dec = lastOf(res, "hub_frames_decoded_total");
    if (dec !== null) tiles += tile("decoded/s", fmt(dec));
    // A served gateway records no e2e latency; its p99 tile (and its SLO
    // rule) read the ring wait instead.
    var lat = res.series["hub_e2e_latency_ms"], latName = "e2e p99";
    if (!lat) { lat = res.series["net_ring_wait_ms"]; latName = "ring wait p99"; }
    if (lat && lat.p99 && lat.p99.length) tiles += tile(latName, fmt(lat.p99[lat.p99.length - 1]) + " ms");
    var nb = (res.breaches || []).length;
    tiles += tile("breaches", String(nb), nb ? "bad" : "");
    document.getElementById("tiles").innerHTML = tiles;

    // Breach markers land on every strip at their window index.
    var breachIdx = [];
    var bs = res.breaches || [];
    for (var i = 0; i < bs.length; i++) {
      var off = bs[i].window - res.start;
      if (off >= 0 && off < res.times.length) breachIdx.push(off);
    }

    var groups = {};
    for (i = 0; i < names.length; i++) {
      var g = groupOf(names[i]);
      (groups[g] = groups[g] || []).push(names[i]);
    }
    var order = PREFIXES.concat(["other"]);
    var html = "";
    for (i = 0; i < order.length; i++) {
      var members = groups[order[i]];
      if (!members) continue;
      html += '<div class="group"><h2>' + (order[i] === "other" ? "other" : order[i] + "*") + "</h2>";
      for (var j = 0; j < members.length; j++) {
        var name = members[j];
        var sd = res.series[name];
        var sv = seriesValues(sd);
        var cur = sv.vals.length ? sv.vals[sv.vals.length - 1] : 0;
        var shard = name.indexOf("{shard=") >= 0;
        html += '<div class="row">' +
          '<div class="name' + (shard ? " shard" : "") + '" title="' + name + '">' + name + sv.label + "</div>" +
          '<div class="val">' + fmt(cur) + "</div>" +
          '<div class="plot" data-name="' + encodeURIComponent(name) + '">' + sparkline(sv.vals, breachIdx) + "</div>" +
          '<div class="range">' + rangeText(sv.vals) + "</div>" +
          "</div>";
      }
      html += "</div>";
    }
    if (bs.length) {
      html += '<div class="group"><h2>SLO breaches</h2><div class="breaches">';
      for (i = 0; i < bs.length; i++) {
        var when = new Date(bs[i].atMillis).toLocaleTimeString();
        html += '<div class="b"><span class="icon">&#9888; breach</span> ' + when + " · " +
          bs[i].rule + " on " + bs[i].metric + ": " + fmt(bs[i].value) +
          " (limit " + fmt(bs[i].limit) + ", window " + bs[i].window + ")</div>";
      }
      html += "</div></div>";
    }
    if (!names.length) html = '<div class="empty">no series retained yet &mdash; waiting for the first sample window</div>';
    document.getElementById("groups").innerHTML = html;
  }

  // Hover layer: crosshair value readout per sparkline.
  document.addEventListener("mousemove", function (ev) {
    var plot = ev.target.closest ? ev.target.closest(".plot") : null;
    if (!plot || !last) { tip.style.display = "none"; return; }
    var name = decodeURIComponent(plot.getAttribute("data-name"));
    var sd = last.series[name];
    if (!sd) { tip.style.display = "none"; return; }
    var vals = seriesValues(sd).vals;
    if (!vals.length) { tip.style.display = "none"; return; }
    var rect = plot.getBoundingClientRect();
    var frac = Math.min(1, Math.max(0, (ev.clientX - rect.left) / rect.width));
    var idx = Math.round(frac * (vals.length - 1));
    var when = last.times[idx] ? new Date(last.times[idx]).toLocaleTimeString() : "";
    tip.innerHTML = '<span class="t">' + when + "</span> &middot; " + fmt(vals[idx]);
    tip.style.display = "block";
    tip.style.left = (ev.clientX + 12) + "px";
    tip.style.top = (ev.clientY + 12) + "px";
  });

  function poll() {
    var health = null;
    fetch("/healthz").then(function (r) { health = r.ok; }).catch(function () {}).then(function () {
      return fetch("/api/history?k=180");
    }).then(function (r) { return r.json(); }).then(function (res) {
      render(res, health);
    }).catch(function (err) {
      document.getElementById("meta").textContent = "poll failed: " + err;
    });
  }
  poll();
  setInterval(poll, 2000);
})();
</script>
</body>
</html>
`
