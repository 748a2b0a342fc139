//! Hazard-analysis throughput: building the dependence DAG from the serial
//! task streams of the tile algorithms (what the scheduler does at
//! submission time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use supersim_dag::DagBuilder;
use supersim_workloads::{cholesky, qr, SharedTiles};

fn bench_dag_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_build");
    for &nt in &[10usize, 20] {
        let a = SharedTiles::layout_only(nt * 10, nt * 10, 10, 0);
        let t = SharedTiles::layout_only(nt * 10, nt * 10, 10, a.id_range().1);

        let chol_tasks: Vec<_> = supersim_tile::cholesky::task_stream(nt).collect();
        group.throughput(Throughput::Elements(chol_tasks.len() as u64));
        group.bench_with_input(BenchmarkId::new("cholesky", nt), &nt, |b, _| {
            b.iter(|| {
                let mut builder = DagBuilder::new();
                for task in &chol_tasks {
                    builder.submit(task.label(), 1.0, &cholesky::accesses(&a, *task));
                }
                builder.finish().len()
            });
        });

        let qr_tasks: Vec<_> = supersim_tile::qr::task_stream(nt).collect();
        group.throughput(Throughput::Elements(qr_tasks.len() as u64));
        group.bench_with_input(BenchmarkId::new("qr", nt), &nt, |b, _| {
            b.iter(|| {
                let mut builder = DagBuilder::new();
                for task in &qr_tasks {
                    builder.submit(task.label(), 1.0, &qr::accesses(&a, &t, *task));
                }
                builder.finish().len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dag_build);
criterion_main!(benches);
