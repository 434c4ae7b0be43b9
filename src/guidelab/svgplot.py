"""Minimal self-contained SVG line/scatter plots.

Presentation only: experiments assert nothing about these files.  Output is
deterministic (fixed formatting, no timestamps), one plot per file.
"""

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


class LinePlot:
    def __init__(self, title="", xlabel="", ylabel=""):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.series = []

    def add(self, xs, ys, label=""):
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)]
        self.series.append((label, pts))

    def write(self, path):
        xs = [p[0] for _, pts in self.series for p in pts]
        ys = [p[1] for _, pts in self.series for p in pts]
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        pw = WIDTH - MARGIN_L - MARGIN_R
        ph = HEIGHT - MARGIN_T - MARGIN_B

        def sx(x):
            return MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

        def sy(y):
            return MARGIN_T + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

        out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
               f'viewBox="0 0 {WIDTH} {HEIGHT}" style="background:#ffffff;font-family:sans-serif">']
        out.append(f'<text x="{WIDTH // 2}" y="24" style="font-size:15px" '
                   f'text-anchor="middle">{self.title}</text>')
        out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
                   f'style="fill:none;stroke:#333333"/>')
        for xt in _ticks(x_lo, x_hi):
            px = sx(xt)
            out.append(f'<line x1="{_fmt(px)}" y1="{MARGIN_T + ph}" x2="{_fmt(px)}" '
                       f'y2="{MARGIN_T + ph + 5}" style="stroke:#333333"/>')
            out.append(f'<text x="{_fmt(px)}" y="{MARGIN_T + ph + 20}" style="font-size:11px" '
                       f'text-anchor="middle">{_fmt(xt)}</text>')
        for yt in _ticks(y_lo, y_hi):
            py = sy(yt)
            out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" '
                       f'y2="{_fmt(py)}" style="stroke:#333333"/>')
            out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" style="font-size:11px" '
                       f'text-anchor="end">{_fmt(yt)}</text>')
        out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" style="font-size:13px" '
                   f'text-anchor="middle">{self.xlabel}</text>')
        out.append(f'<text x="18" y="{HEIGHT // 2}" style="font-size:13px" text-anchor="middle" '
                   f'transform="rotate(-90 18 {HEIGHT // 2})">{self.ylabel}</text>')
        for i, (label, pts) in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            path_d = " ".join(f"{'M' if j == 0 else 'L'}{_fmt(sx(x))},{_fmt(sy(y))}"
                              for j, (x, y) in enumerate(pts))
            out.append(f'<path d="{path_d}" style="fill:none;stroke:{color};stroke-width:1.5"/>')
            if len(pts) <= 40:
                for x, y in pts:
                    out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                               f'style="fill:{color}"/>')
            if label:
                ly = MARGIN_T + 16 + 16 * i
                out.append(f'<line x1="{MARGIN_L + pw - 130}" y1="{ly - 4}" '
                           f'x2="{MARGIN_L + pw - 105}" y2="{ly - 4}" '
                           f'style="stroke:{color};stroke-width:2"/>')
                out.append(f'<text x="{MARGIN_L + pw - 100}" y="{ly}" '
                           f'style="font-size:12px">{label}</text>')
        out.append("</svg>")
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")
